//! MapReduce workload characterizations.
//!
//! The paper classifies applications by the size of the map output and
//! reduce output relative to the input (§III-A1): *heavy* (both big —
//! sort), *moderate* (map output big — wordcount without combiner) and
//! *light* (both small — wordcount with combiner). A [`WorkloadSpec`]
//! captures exactly the knobs that drive that classification plus the
//! CPU cost of the user functions.

/// Per-application parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Human-readable name (used in reports).
    pub name: String,
    /// map output bytes / map input bytes.
    pub map_output_ratio: f64,
    /// reduce output bytes / reduce input bytes.
    pub reduce_output_ratio: f64,
    /// CPU nanoseconds per input byte in the map function
    /// (tokenization, local sort, combine).
    pub map_cpu_ns_per_byte: u64,
    /// CPU nanoseconds per input byte in the reduce function.
    pub reduce_cpu_ns_per_byte: u64,
    /// Whether a combiner runs on in-memory map output.
    pub combiner: bool,
}

impl WorkloadSpec {
    /// Default `wordcount` *with* combiner: the combine function
    /// collapses in-buffer pairs, so very little hits the disk, and the
    /// job is CPU-bound on tokenization (paper: "light").
    pub fn wordcount() -> Self {
        WorkloadSpec {
            name: "wordcount".into(),
            map_output_ratio: 0.06,
            reduce_output_ratio: 0.7,
            map_cpu_ns_per_byte: 55,
            reduce_cpu_ns_per_byte: 12,
            combiner: true,
        }
    }

    /// `wordcount` *without* combiner: every (word, 1) pair is spilled —
    /// the paper measures the map output at ~1.7× the input
    /// ("moderate").
    pub fn wordcount_no_combiner() -> Self {
        WorkloadSpec {
            name: "wordcount-nc".into(),
            map_output_ratio: 1.7,
            reduce_output_ratio: 0.04,
            map_cpu_ns_per_byte: 45,
            reduce_cpu_ns_per_byte: 10,
            combiner: false,
        }
    }

    /// Stream sort: map input, map output, reduce input and reduce
    /// output all have the same size ("heavy"); CPU cost is comparison
    /// work only.
    pub fn sort() -> Self {
        WorkloadSpec {
            name: "sort".into(),
            map_output_ratio: 1.0,
            reduce_output_ratio: 1.0,
            map_cpu_ns_per_byte: 8,
            reduce_cpu_ns_per_byte: 6,
            combiner: false,
        }
    }

    /// The three benchmarks the paper evaluates, in its order.
    pub fn paper_benchmarks() -> Vec<WorkloadSpec> {
        vec![
            Self::wordcount(),
            Self::wordcount_no_combiner(),
            Self::sort(),
        ]
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.map_output_ratio > 0.0 && self.map_output_ratio.is_finite()) {
            return Err(format!("bad map_output_ratio {}", self.map_output_ratio));
        }
        if !(self.reduce_output_ratio > 0.0 && self.reduce_output_ratio.is_finite()) {
            return Err(format!(
                "bad reduce_output_ratio {}",
                self.reduce_output_ratio
            ));
        }
        if self.name.is_empty() {
            return Err("workload name must not be empty".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for w in WorkloadSpec::paper_benchmarks() {
            w.validate().unwrap();
        }
    }

    #[test]
    fn wordcount_nc_output_bigger_than_input() {
        let w = WorkloadSpec::wordcount_no_combiner();
        assert!(w.map_output_ratio > 1.5, "paper reports ~1.7x");
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut w = WorkloadSpec::sort();
        w.map_output_ratio = 0.0;
        assert!(w.validate().is_err());
        let mut w2 = WorkloadSpec::sort();
        w2.name.clear();
        assert!(w2.validate().is_err());
    }
}
