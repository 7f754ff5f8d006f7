//! The elevator interface, scheduler identities, tunables and factory.

use crate::request::{AddOutcome, IoRequest, QueuedRq, RunStep, SegRun};
use simcore::SimTime;
use std::fmt;
use std::str::FromStr;

/// The four Linux 2.6 disk schedulers studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedKind {
    /// FIFO with merging only.
    Noop,
    /// Sorted one-way scan + per-direction expiry FIFOs.
    Deadline,
    /// Deadline-style scan + per-stream anticipation after sync reads.
    Anticipatory,
    /// Completely Fair Queuing: per-stream sync queues with time slices.
    Cfq,
}

impl SchedKind {
    /// All four kinds, in the paper's table order (CFQ, DL, AS, NP).
    pub const ALL: [SchedKind; 4] = [
        SchedKind::Cfq,
        SchedKind::Deadline,
        SchedKind::Anticipatory,
        SchedKind::Noop,
    ];

    /// One-letter code used in the paper's Fig. 5 axis labels
    /// (`c`, `d`, `a`, `n`).
    pub fn code(self) -> char {
        match self {
            SchedKind::Cfq => 'c',
            SchedKind::Deadline => 'd',
            SchedKind::Anticipatory => 'a',
            SchedKind::Noop => 'n',
        }
    }

    /// Position in [`SchedKind::ALL`].
    const fn index(self) -> usize {
        match self {
            SchedKind::Cfq => 0,
            SchedKind::Deadline => 1,
            SchedKind::Anticipatory => 2,
            SchedKind::Noop => 3,
        }
    }

    /// Short label as used in the paper's figures (CFQ, DL, AS, NP).
    pub fn short(self) -> &'static str {
        match self {
            SchedKind::Cfq => "CFQ",
            SchedKind::Deadline => "DL",
            SchedKind::Anticipatory => "AS",
            SchedKind::Noop => "NP",
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchedKind::Noop => "noop",
            SchedKind::Deadline => "deadline",
            SchedKind::Anticipatory => "anticipatory",
            SchedKind::Cfq => "cfq",
        };
        f.write_str(s)
    }
}

/// Error parsing a scheduler name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchedError(pub String);

impl fmt::Display for ParseSchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheduler {:?} (expected noop|deadline|anticipatory|cfq)", self.0)
    }
}
impl std::error::Error for ParseSchedError {}

impl FromStr for SchedKind {
    type Err = ParseSchedError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "noop" | "np" | "n" => Ok(SchedKind::Noop),
            "deadline" | "dl" | "d" => Ok(SchedKind::Deadline),
            "anticipatory" | "as" | "a" => Ok(SchedKind::Anticipatory),
            "cfq" | "c" => Ok(SchedKind::Cfq),
            other => Err(ParseSchedError(other.to_string())),
        }
    }
}

/// A (VMM-level, VM-level) scheduler pair — the unit the paper tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchedPair {
    /// Scheduler in the hypervisor (Dom0).
    pub host: SchedKind,
    /// Scheduler inside every guest (DomU).
    pub guest: SchedKind,
}

impl SchedPair {
    /// Construct a pair.
    pub const fn new(host: SchedKind, guest: SchedKind) -> Self {
        SchedPair { host, guest }
    }

    /// The paper's default: (CFQ, CFQ).
    pub const DEFAULT: SchedPair = SchedPair::new(SchedKind::Cfq, SchedKind::Cfq);

    /// All 16 pairs, host-major in the paper's table order.
    pub fn all() -> Vec<SchedPair> {
        let mut v = Vec::with_capacity(16);
        for h in SchedKind::ALL {
            for g in SchedKind::ALL {
                v.push(SchedPair::new(h, g));
            }
        }
        v
    }

    /// Position in [`SchedPair::all`]: host-major over [`SchedKind::ALL`].
    pub const fn index(self) -> usize {
        self.host.index() * SchedKind::ALL.len() + self.guest.index()
    }

    /// Two-letter code as in Fig. 5 (`ca` = CFQ in VMM, AS in VMs).
    pub fn code(self) -> String {
        format!("{}{}", self.host.code(), self.guest.code())
    }
}

impl fmt::Display for SchedPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.host.short(), self.guest.short())
    }
}

impl FromStr for SchedPair {
    type Err = ParseSchedError;
    /// Parse `"host,guest"`, `"(host, guest)"` or a 2-letter code like `"ad"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().trim_start_matches('(').trim_end_matches(')');
        if let Some((h, g)) = t.split_once(',') {
            return Ok(SchedPair::new(h.trim().parse()?, g.trim().parse()?));
        }
        let chars: Vec<char> = t.chars().collect();
        if chars.len() == 2 {
            let h: SchedKind = chars[0].to_string().parse()?;
            let g: SchedKind = chars[1].to_string().parse()?;
            return Ok(SchedPair::new(h, g));
        }
        Err(ParseSchedError(s.to_string()))
    }
}

/// A dispatch decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispatch {
    /// Service this request now.
    Request(QueuedRq),
    /// Deliberately idle (anticipation / slice idling): poll again at
    /// `until`, or immediately after the next arrival.
    Idle {
        /// When the idling decision expires.
        until: SimTime,
    },
    /// Nothing queued.
    Empty,
}

/// The elevator interface every scheduler implements.
///
/// Driver contract (see `vmstack`):
/// * after `add_run`, if the device is idle, call `dispatch`;
/// * on `Dispatch::Idle { until }`, arm a timer for `until` and call
///   `dispatch` again when it fires *or* when a new request arrives —
///   whichever comes first;
/// * call `completed` for every finished [`QueuedRq`], then `dispatch`
///   if the device is free.
pub trait Elevator: Send {
    /// Which scheduler this is.
    fn kind(&self) -> SchedKind;

    /// Submit every piece of `run` at `now`, in order (each may merge
    /// into an already queued request), appending one [`RunStep`] per
    /// group of arrivals with the same outcome and resulting queue
    /// depth. The one entry path: a single request enters as a run of
    /// one ([`SegRun::one`]). Entering a run must equal entering each
    /// of its pieces as a run of one, which `kernel_diff.rs` checks for
    /// every elevator.
    fn add_run(&mut self, run: &mut SegRun, now: SimTime, steps: &mut Vec<RunStep>);

    /// Submit one request as a run of one and return its outcome. Each
    /// call allocates a step buffer; hot loops call
    /// [`Elevator::add_run`] with a reused one.
    fn add(&mut self, r: IoRequest, now: SimTime) -> AddOutcome {
        let mut steps = Vec::with_capacity(1);
        self.add_run(&mut SegRun::one(r), now, &mut steps);
        steps[0].outcome
    }

    /// Ask for the next request to service.
    fn dispatch(&mut self, now: SimTime) -> Dispatch;

    /// Notify that a previously dispatched request finished.
    fn completed(&mut self, rq: &QueuedRq, now: SimTime);

    /// Number of queued (merged) requests not yet dispatched.
    fn queued(&self) -> usize;

    /// Remove and return everything still queued (elevator switch).
    fn drain(&mut self) -> Vec<QueuedRq>;
}

/// Tunables for all schedulers (Linux 2.6 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct Tunables {
    /// Cap on merged request size, in sectors (512 KiB default, matching
    /// `max_sectors_kb`).
    pub max_merge_sectors: u64,
    /// Deadline scheduler knobs.
    pub deadline: crate::deadline::DeadlineConfig,
    /// Anticipatory scheduler knobs.
    pub anticipatory: crate::anticipatory::AsConfig,
    /// CFQ knobs.
    pub cfq: crate::cfq::CfqConfig,
}

impl Default for Tunables {
    fn default() -> Self {
        Tunables {
            max_merge_sectors: 1024,
            deadline: Default::default(),
            anticipatory: Default::default(),
            cfq: Default::default(),
        }
    }
}

/// An elevator of any of the four kinds, on the production slab pool
/// kernel. It implements [`Elevator`] by delegating to the kind it
/// holds. Being an enum rather than a `Box<dyn Elevator>`, it is
/// `Clone`, and so is a node stack that holds one.
#[derive(Clone)]
pub enum AnyElevator {
    /// [`crate::noop::Noop`].
    Noop(crate::noop::Noop),
    /// [`crate::deadline::DeadlineSched`].
    Deadline(crate::deadline::DeadlineSched),
    /// [`crate::anticipatory::Anticipatory`].
    Anticipatory(crate::anticipatory::Anticipatory),
    /// [`crate::cfq::Cfq`].
    Cfq(crate::cfq::Cfq),
}

/// Evaluate `$body` with `$e` bound to the elevator `$any` holds.
macro_rules! delegate {
    ($any:expr, $e:ident => $body:expr) => {
        match $any {
            AnyElevator::Noop($e) => $body,
            AnyElevator::Deadline($e) => $body,
            AnyElevator::Anticipatory($e) => $body,
            AnyElevator::Cfq($e) => $body,
        }
    };
}

impl Elevator for AnyElevator {
    fn kind(&self) -> SchedKind {
        delegate!(self, e => e.kind())
    }

    fn add_run(&mut self, run: &mut SegRun, now: SimTime, steps: &mut Vec<RunStep>) {
        delegate!(self, e => e.add_run(run, now, steps))
    }

    fn dispatch(&mut self, now: SimTime) -> Dispatch {
        delegate!(self, e => e.dispatch(now))
    }

    fn completed(&mut self, rq: &QueuedRq, now: SimTime) {
        delegate!(self, e => e.completed(rq, now))
    }

    fn queued(&self) -> usize {
        delegate!(self, e => e.queued())
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        delegate!(self, e => e.drain())
    }
}

/// Instantiate an elevator of the given kind (on the production slab
/// pool kernel).
pub fn build_elevator(kind: SchedKind, tune: &Tunables) -> AnyElevator {
    use crate::{anticipatory::Anticipatory, cfq::Cfq, deadline::DeadlineSched, noop::Noop};
    let max = tune.max_merge_sectors;
    match kind {
        SchedKind::Noop => AnyElevator::Noop(Noop::new(max)),
        SchedKind::Deadline => {
            AnyElevator::Deadline(DeadlineSched::new(tune.deadline.clone(), max))
        }
        SchedKind::Anticipatory => {
            AnyElevator::Anticipatory(Anticipatory::new(tune.anticipatory.clone(), max))
        }
        SchedKind::Cfq => AnyElevator::Cfq(Cfq::new(tune.cfq.clone(), max)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for k in SchedKind::ALL {
            let s = k.to_string();
            assert_eq!(s.parse::<SchedKind>().unwrap(), k);
            assert_eq!(k.code().to_string().parse::<SchedKind>().unwrap(), k);
        }
    }

    #[test]
    fn pair_parse_forms() {
        let p: SchedPair = "anticipatory,deadline".parse().unwrap();
        assert_eq!(p, SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline));
        let p2: SchedPair = "(AS, DL)".parse().unwrap();
        assert_eq!(p2, p);
        let p3: SchedPair = "ad".parse().unwrap();
        assert_eq!(p3, p);
        assert!("xyz".parse::<SchedPair>().is_err());
    }

    #[test]
    fn pair_index_is_its_position_in_all() {
        for (i, p) in SchedPair::all().into_iter().enumerate() {
            assert_eq!(p.index(), i, "{}", p.code());
        }
    }

    #[test]
    fn sixteen_pairs() {
        let all = SchedPair::all();
        assert_eq!(all.len(), 16);
        let codes: std::collections::HashSet<String> =
            all.iter().map(|p| p.code()).collect();
        assert_eq!(codes.len(), 16);
        assert!(all.contains(&SchedPair::DEFAULT));
    }

    #[test]
    fn pair_display_matches_paper() {
        let p = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);
        assert_eq!(p.to_string(), "(AS, DL)");
        assert_eq!(p.code(), "ad");
    }
}
