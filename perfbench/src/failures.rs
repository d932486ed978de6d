//! Failure accounting: every request is classified once, under one
//! reason, against the serial alpha-beta oracle.
//!
//! Node counts and best moves of threaded runs are never compared: they
//! legitimately vary with thread timing. Only the root value is checked.

use std::collections::BTreeMap;

/// What the program reported for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    /// Admission rejection, by name.
    pub shed: Option<String>,
    /// Abort reason, by `AbortReason` name.
    pub aborted: Option<String>,
    pub depth_completed: u32,
    pub max_depth: u32,
    pub value: i32,
}

/// Why a request failed. The first reason that applies, in this order,
/// is the one recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Admission control refused the request; it never ran.
    Shed(String),
    /// The search stopped early, with its abort reason.
    Aborted(String),
    /// The search reported fewer completed plies than were asked for,
    /// without an abort reason.
    ShortDepth,
    /// The root value differs from serial alpha-beta at the completed
    /// depth.
    WrongValue,
}

impl Failure {
    pub fn reason(&self) -> String {
        match self {
            Failure::Shed(b) => format!("shed:{b}"),
            Failure::Aborted(r) => format!("aborted:{r}"),
            Failure::ShortDepth => "short_depth".to_string(),
            Failure::WrongValue => "wrong_value".to_string(),
        }
    }
}

/// Classifies one request. `oracle(depth)` returns alpha-beta's root
/// value at `depth`; it is called only for a request that completed.
pub fn classify(o: &Observed, oracle: impl FnOnce(u32) -> i32) -> Option<Failure> {
    if let Some(b) = &o.shed {
        return Some(Failure::Shed(b.clone()));
    }
    if let Some(r) = &o.aborted {
        return Some(Failure::Aborted(r.clone()));
    }
    if o.depth_completed < o.max_depth {
        return Some(Failure::ShortDepth);
    }
    (oracle(o.depth_completed) != o.value).then_some(Failure::WrongValue)
}

/// Attempted requests and failures by reason.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub by_reason: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one request's classification; returns whether it failed.
    pub fn record(&mut self, f: Option<&Failure>) -> bool {
        self.attempted += 1;
        if let Some(f) = f {
            *self.by_reason.entry(f.reason()).or_default() += 1;
        }
        f.is_some()
    }

    pub fn failed(&self) -> u64 {
        self.by_reason.values().sum()
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        for (k, v) in &o.by_reason {
            *self.by_reason.entry(k.clone()).or_default() += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(value: i32, depth: u32) -> Observed {
        Observed {
            shed: None,
            aborted: None,
            depth_completed: depth,
            max_depth: 7,
            value,
        }
    }

    #[test]
    fn each_failure_is_counted_once_under_one_reason() {
        let mut t = Tally::default();
        let oracle = |_: u32| 5;
        // Correct.
        assert!(!t.record(classify(&done(5, 7), oracle).as_ref()));
        // Wrong value.
        assert!(t.record(classify(&done(6, 7), oracle).as_ref()));
        // A panicked session that also returned a shallow, different value
        // is one aborted failure, not three.
        let panicked = Observed {
            aborted: Some("WorkerPanicked".into()),
            ..done(-40, 3)
        };
        assert!(t.record(classify(&panicked, oracle).as_ref()));
        // Short depth without an abort reason, whatever its value.
        assert!(t.record(classify(&done(6, 5), oracle).as_ref()));
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed(), 3);
        let want: BTreeMap<String, u64> = [
            ("aborted:WorkerPanicked".to_string(), 1),
            ("short_depth".to_string(), 1),
            ("wrong_value".to_string(), 1),
        ]
        .into();
        assert_eq!(t.by_reason, want);
    }

    #[test]
    fn the_oracle_runs_only_for_completed_requests() {
        let shed = Observed {
            shed: Some("QueueFull".into()),
            ..done(0, 0)
        };
        let f = classify(&shed, |_| panic!("a shed request has no value to check"));
        assert_eq!(f, Some(Failure::Shed("QueueFull".into())));
        let mut asked = None;
        classify(&done(5, 7), |d| {
            asked = Some(d);
            5
        });
        assert_eq!(asked, Some(7), "checked at the completed depth");
    }
}
