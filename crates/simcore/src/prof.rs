//! Always-available hierarchical span profiler.
//!
//! Every hot layer of the simulator wraps its work in named spans
//! ([`span`] / [`span_hot`]) and attributes event counts to the open
//! span ([`count`]). The accumulated tree answers the question the
//! ROADMAP's kernel-speed work keeps asking by hand: *which subsystem
//! owns the wall time?* — as a regenerable `adios.profile/1` document
//! instead of a prose estimate.
//!
//! Design constraints, in order:
//!
//! 1. **Gated by [`Telemetry`]**. The per-thread level mirrors the
//!    existing three-level telemetry enum ([`set_level`]); at
//!    [`Telemetry::Off`] every call site costs one thread-local read
//!    and a branch, nothing else. At [`Telemetry::Counters`] (the
//!    default) batch-granularity spans are timed and per-event hot
//!    spans/counters are skipped entirely — they fire millions of
//!    times per job, and even clock-free bookkeeping there costs
//!    double-digit percent. At [`Telemetry::Full`] everything is
//!    recorded and timed.
//! 2. **Deterministic structure**. Span names are `&'static str`
//!    literals, children are exported sorted by name, and call /
//!    counter totals are sums — so the structural skeleton of the
//!    exported document ([`Profile::skeleton_json`]) is byte-identical
//!    whatever the thread count or interleaving. Wall-clock fields
//!    (`total_ns` / `self_ns`) are host-dependent and excluded from
//!    the skeleton (and from all digests).
//! 3. **Panic-safe**. A span is closed by the [`SpanGuard`]'s `Drop`,
//!    so unwinding pops exactly the frames it entered; the enter/exit
//!    balance property test randomizes panics to pin this.
//! 4. **Mergeable across `par_map`**. Worker threads accumulate into
//!    their own thread-local trees; [`crate::par::par_map_threads`]
//!    drains each worker ([`take`]) and folds it into the caller
//!    ([`merge`]) in worker-index order, under the caller's currently
//!    open span.
//!
//! Span names use a `subsystem.detail` convention (`evq.pop_batch`,
//! `net.solve`, `iosched.dispatch`, `vmstack.stack_event`,
//! `metasched.tune`): the text before the first `.` is the subsystem
//! every share rollup groups by.

use crate::json::Json;
use crate::metrics::Telemetry;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Profiling disabled: spans cost one branch.
pub const LEVEL_OFF: u8 = 0;
/// Batch-granularity spans and counters recorded; per-event hot spans
/// and hot counters skipped (the default, matching
/// [`Telemetry::Counters`]).
pub const LEVEL_COUNTERS: u8 = 1;
/// Everything recorded and timed, including per-request hot spans.
pub const LEVEL_FULL: u8 = 2;

thread_local! {
    static LEVEL: Cell<u8> = const { Cell::new(LEVEL_COUNTERS) };
    static TREE: RefCell<ThreadProfile> = RefCell::new(ThreadProfile::new());
}

/// Map a [`Telemetry`] level onto this thread's profiling level.
pub fn set_level(t: Telemetry) {
    let lvl = match t {
        Telemetry::Off => LEVEL_OFF,
        Telemetry::Counters => LEVEL_COUNTERS,
        Telemetry::Full => LEVEL_FULL,
    };
    LEVEL.with(|l| l.set(lvl));
}

/// This thread's raw profiling level (for propagation into `par_map`
/// workers).
pub fn thread_level() -> u8 {
    LEVEL.with(|l| l.get())
}

/// Set this thread's raw profiling level (the worker half of
/// propagation; use [`set_level`] everywhere else).
pub fn set_thread_level(lvl: u8) {
    LEVEL.with(|l| l.set(lvl.min(LEVEL_FULL)));
}

/// One span node in a (thread or merged) profile tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    children: Vec<u32>,
    calls: u64,
    total_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node { name, children: Vec::new(), calls: 0, total_ns: 0, counters: Vec::new() }
    }
}

/// The per-thread accumulator: a growing tree plus the open-span stack.
#[derive(Debug)]
struct ThreadProfile {
    /// `nodes[0]` is the synthetic root (never exported itself).
    nodes: Vec<Node>,
    stack: Vec<u32>,
}

impl ThreadProfile {
    fn new() -> ThreadProfile {
        ThreadProfile { nodes: vec![Node::new("")], stack: Vec::new() }
    }

    /// Find or create `name` under `parent`. Fan-out per node is small
    /// (a handful of static names), so a linear scan beats any map.
    fn child(&mut self, parent: u32, name: &'static str) -> u32 {
        let kids = &self.nodes[parent as usize].children;
        for &c in kids {
            let n = self.nodes[c as usize].name;
            if std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name {
                return c;
            }
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::new(name));
        self.nodes[parent as usize].children.push(idx);
        idx
    }

    fn enter(&mut self, name: &'static str) {
        let cur = self.stack.last().copied().unwrap_or(0);
        let idx = self.child(cur, name);
        self.nodes[idx as usize].calls += 1;
        self.stack.push(idx);
    }

    fn exit(&mut self, elapsed_ns: u64) {
        let idx = self.stack.pop().expect("prof: exit without enter");
        self.nodes[idx as usize].total_ns += elapsed_ns;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        let cur = self.stack.last().copied().unwrap_or(0);
        let ctrs = &mut self.nodes[cur as usize].counters;
        for c in ctrs.iter_mut() {
            if std::ptr::eq(c.0.as_ptr(), name.as_ptr()) || c.0 == name {
                c.1 += n;
                return;
            }
        }
        ctrs.push((name, n));
    }
}

/// RAII span: created by [`span`] / [`span_hot`], closed on drop
/// (including drops during panic unwinding).
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    start: Option<Instant>,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ns = self
            .start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        TREE.with(|t| t.borrow_mut().exit(ns));
    }
}

/// Open a timed span (timed at [`LEVEL_COUNTERS`] and above). Use for
/// per-batch / per-pass granularity, not per-request hot paths.
pub fn span(name: &'static str) -> SpanGuard {
    let lvl = LEVEL.with(|l| l.get());
    if lvl == LEVEL_OFF {
        return SpanGuard { start: None, active: false };
    }
    TREE.with(|t| t.borrow_mut().enter(name));
    SpanGuard { start: Some(Instant::now()), active: true }
}

/// Open a hot-path span: recorded (and timed) only at [`LEVEL_FULL`];
/// a pure branch below it. Use on per-event / per-request sites —
/// these fire millions of times per simulated job, so even clock-free
/// tree bookkeeping per call breaches the default-level overhead
/// budget (measured ~18% on the 64x4 headline cell). At
/// [`LEVEL_COUNTERS`] their work is attributed to the enclosing
/// batch-granularity [`span`] instead.
pub fn span_hot(name: &'static str) -> SpanGuard {
    let lvl = LEVEL.with(|l| l.get());
    if lvl < LEVEL_FULL {
        return SpanGuard { start: None, active: false };
    }
    TREE.with(|t| t.borrow_mut().enter(name));
    SpanGuard { start: Some(Instant::now()), active: true }
}

/// Add `n` to counter `name` on the currently open span (the root when
/// none is open). One thread-local access; free at [`LEVEL_OFF`]. Use
/// only at batch granularity — see [`count_hot`] for per-request
/// sites.
pub fn count(name: &'static str, n: u64) {
    if LEVEL.with(|l| l.get()) == LEVEL_OFF {
        return;
    }
    TREE.with(|t| t.borrow_mut().count(name, n));
}

/// [`count`] for per-request hot paths: recorded only at
/// [`LEVEL_FULL`], a pure branch below it (same rationale as
/// [`span_hot`]).
pub fn count_hot(name: &'static str, n: u64) {
    if LEVEL.with(|l| l.get()) < LEVEL_FULL {
        return;
    }
    TREE.with(|t| t.borrow_mut().count(name, n));
}

/// Open-span depth of this thread (0 = balanced). Test hook for the
/// drop-guard property test.
pub fn depth() -> usize {
    TREE.with(|t| t.borrow().stack.len())
}

/// Discard this thread's accumulated profile (test isolation). Panics
/// if spans are still open.
pub fn reset() {
    TREE.with(|t| {
        let mut tp = t.borrow_mut();
        assert!(tp.stack.is_empty(), "prof::reset with {} open span(s)", tp.stack.len());
        *tp = ThreadProfile::new();
    });
}

/// Drain this thread's profile into an owned [`Profile`], leaving the
/// accumulator empty. Panics if spans are still open — a take mid-span
/// would dangle the open frames.
pub fn take() -> Profile {
    TREE.with(|t| {
        let mut tp = t.borrow_mut();
        assert!(tp.stack.is_empty(), "prof::take with {} open span(s)", tp.stack.len());
        let nodes = std::mem::replace(&mut tp.nodes, vec![Node::new("")]);
        Profile { nodes }
    })
}

/// Fold `p` into this thread's accumulator under the currently open
/// span (summing calls, wall time and counters of equal-named spans).
pub fn merge(p: &Profile) {
    if p.is_empty() {
        return;
    }
    TREE.with(|t| {
        let mut tp = t.borrow_mut();
        let cur = tp.stack.last().copied().unwrap_or(0);
        merge_children(&mut tp, cur, p, 0);
    });
}

fn merge_children(tp: &mut ThreadProfile, into: u32, p: &Profile, from: usize) {
    // Child list is cloned up front: `tp` grows while we walk `p`.
    let kids = p.nodes[from].children.clone();
    for c in kids {
        let src = &p.nodes[c as usize];
        let idx = tp.child(into, src.name);
        let dst = &mut tp.nodes[idx as usize];
        dst.calls += src.calls;
        dst.total_ns += src.total_ns;
        for &(name, n) in &src.counters {
            let mut found = false;
            for d in dst.counters.iter_mut() {
                if d.0 == name {
                    d.1 += n;
                    found = true;
                    break;
                }
            }
            if !found {
                dst.counters.push((name, n));
            }
        }
        merge_children(tp, idx, p, c as usize);
    }
}

/// The share-rollup key of a span name: everything before the first
/// `.` (the whole name when it has none).
pub fn subsystem(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// An owned, mergeable span tree drained from a thread accumulator.
#[derive(Debug, Clone)]
pub struct Profile {
    nodes: Vec<Node>,
}

impl Profile {
    /// An empty profile (nothing was recorded).
    pub fn empty() -> Profile {
        Profile { nodes: vec![Node::new("")] }
    }

    /// True when no span was ever entered.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn self_ns_of(&self, n: &Node) -> u64 {
        let child_ns: u64 = n.children.iter().map(|&c| self.nodes[c as usize].total_ns).sum();
        n.total_ns.saturating_sub(child_ns)
    }

    fn node_json(&self, idx: usize, wall: bool) -> Json {
        let n = &self.nodes[idx];
        let mut j = Json::obj().field("name", n.name).field("calls", n.calls);
        if !n.counters.is_empty() {
            let mut ctrs = n.counters.clone();
            ctrs.sort_by(|a, b| a.0.cmp(b.0));
            let mut o = Json::obj();
            for (name, v) in ctrs {
                o = o.field(name, v);
            }
            j = j.field("counters", o);
        }
        if wall {
            j = j
                .field("total_ns", n.total_ns)
                .field("self_ns", self.self_ns_of(n));
        }
        let mut kids: Vec<u32> = self.nodes[idx].children.clone();
        kids.sort_by(|&a, &b| self.nodes[a as usize].name.cmp(self.nodes[b as usize].name));
        if !kids.is_empty() {
            j = j.field(
                "children",
                Json::Arr(kids.iter().map(|&c| self.node_json(c as usize, wall)).collect()),
            );
        }
        j
    }

    fn doc(&self, wall: bool) -> Json {
        let mut kids: Vec<u32> = self.nodes[0].children.clone();
        kids.sort_by(|&a, &b| self.nodes[a as usize].name.cmp(self.nodes[b as usize].name));
        Json::obj()
            .field("schema", "adios.profile/1")
            .field(
                "spans",
                Json::Arr(kids.iter().map(|&c| self.node_json(c as usize, wall)).collect()),
            )
    }

    /// The full `adios.profile/1` document: deterministic structure
    /// (names, hierarchy, call/counter totals; children sorted by
    /// name) plus host-dependent `total_ns` / `self_ns` wall fields.
    pub fn to_json(&self) -> Json {
        self.doc(true)
    }

    /// The structural skeleton: the same document with every
    /// wall-clock field omitted. This is what the determinism goldens
    /// compare byte-for-byte across `SIM_THREADS`, and the only form
    /// that may ever enter a digest.
    pub fn skeleton_json(&self) -> Json {
        self.doc(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_clean<R>(lvl: u8, f: impl FnOnce() -> R) -> R {
        let prev = thread_level();
        set_thread_level(lvl);
        reset();
        let r = f();
        reset();
        set_thread_level(prev);
        r
    }

    #[test]
    fn spans_nest_and_count() {
        with_clean(LEVEL_FULL, || {
            {
                let _a = span("evq.pop_batch");
                count("events", 3);
                {
                    let _b = span("net.solve");
                    count("flows", 1);
                }
                let _b2 = span("net.solve");
            }
            let p = take();
            let doc = p.skeleton_json().to_string();
            assert_eq!(
                doc,
                "{\"schema\":\"adios.profile/1\",\"spans\":[{\"name\":\"evq.pop_batch\",\
                 \"calls\":1,\"counters\":{\"events\":3},\"children\":[{\"name\":\"net.solve\",\
                 \"calls\":2,\"counters\":{\"flows\":1}}]}]}"
            );
        });
    }

    #[test]
    fn off_level_records_nothing() {
        with_clean(LEVEL_OFF, || {
            let _a = span("evq.pop_batch");
            count("events", 9);
            drop(_a);
            assert!(take().is_empty());
        });
    }

    #[test]
    fn hot_spans_and_counters_skipped_below_full() {
        // Per-event sites must be a pure branch at the default level:
        // their work shows up inside the enclosing batch span instead.
        with_clean(LEVEL_COUNTERS, || {
            let _b = span("vcluster.batch");
            for _ in 0..5 {
                let _h = span_hot("iosched.dispatch");
                count_hot("merged", 1);
            }
            drop(_b);
            let doc = take().to_json().to_string();
            assert!(!doc.contains("iosched.dispatch"), "{doc}");
            assert!(!doc.contains("merged"), "{doc}");
            assert!(doc.contains("vcluster.batch"), "{doc}");
        });
    }

    #[test]
    fn hot_spans_timed_at_full() {
        with_clean(LEVEL_FULL, || {
            for _ in 0..5 {
                let _h = span_hot("iosched.dispatch");
                count_hot("merged", 1);
            }
            let doc = take().to_json().to_string();
            assert!(doc.contains("\"name\":\"iosched.dispatch\",\"calls\":5"), "{doc}");
            assert!(doc.contains("\"merged\":5"), "{doc}");
        });
    }

    #[test]
    fn merge_sums_equal_named_spans() {
        with_clean(LEVEL_FULL, || {
            {
                let _a = span("net.solve");
                count("flows", 2);
            }
            let worker = take();
            {
                let _a = span("net.solve");
                count("flows", 1);
            }
            merge(&worker);
            merge(&Profile::empty());
            let p = take();
            let doc = p.skeleton_json().to_string();
            assert!(doc.contains("\"calls\":2"), "{doc}");
            assert!(doc.contains("\"flows\":3"), "{doc}");
        });
    }

    #[test]
    fn children_sorted_by_name_regardless_of_entry_order() {
        let a = with_clean(LEVEL_FULL, || {
            {
                let _r = span("run");
                drop(span("b.x"));
                drop(span("a.y"));
            }
            take().skeleton_json().to_string()
        });
        let b = with_clean(LEVEL_FULL, || {
            {
                let _r = span("run");
                drop(span("a.y"));
                drop(span("b.x"));
            }
            take().skeleton_json().to_string()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn prop_drop_guards_balance_under_randomized_panics() {
        // Randomized nested span trees that panic at arbitrary depth:
        // unwinding must pop exactly the frames it entered, leaving
        // the thread accumulator balanced and takeable.
        const NAMES: [&str; 5] =
            ["evq.pop", "net.solve", "iosched.add", "vmstack.pump", "metasched.tune"];
        fn walk(g: &mut crate::check::Gen, depth: usize) {
            let kids = g.usize_in(0, 4);
            for _ in 0..kids {
                let _s = if g.bool() {
                    span(NAMES[g.usize_in(0, NAMES.len())])
                } else {
                    span_hot(NAMES[g.usize_in(0, NAMES.len())])
                };
                count("steps", 1);
                if g.u32_in(0, 10) == 0 {
                    panic!("injected");
                }
                if depth < 4 {
                    walk(g, depth + 1);
                }
            }
        }
        with_clean(LEVEL_FULL, || {
            crate::check::check(60, |g| {
                let lvl = g.u32_in(0, 3) as u8;
                set_thread_level(lvl);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _top = span("run");
                    walk(g, 0);
                }));
                let _ = r;
                assert_eq!(depth(), 0, "unbalanced after unwind");
                set_thread_level(LEVEL_FULL);
                let _ = take();
            });
        });
    }
}
