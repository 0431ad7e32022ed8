//! Traffic classification: the packet attributes policies discriminate on.
//!
//! Paper Section 2.3: "Common source and transit policies may be based on
//! such things as the source and destination of the traffic, the other ADs
//! in the path, Quality of Service (QOS), time of day, User Class
//! Identifier, …".

use adroute_topology::AdId;
use std::fmt;

/// A Quality-of-Service class index.
///
/// The paper treats QOS routing as "multiple spanning trees, one for each
/// QOS" (Section 2.3); protocols in this workspace maintain per-QOS state
/// keyed by this index. Class 0 is conventional best effort.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct QosClass(pub u8);

impl QosClass {
    /// Best-effort service, supported by every AD.
    pub const BEST_EFFORT: QosClass = QosClass(0);
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qos{}", self.0)
    }
}

/// A User Class Identifier (UCI) — e.g. "government", "commercial",
/// "research" traffic. Policies may carry UCI-specific terms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct UserClass(pub u8);

impl UserClass {
    /// The default, unprivileged user class.
    pub(crate) const DEFAULT: UserClass = UserClass(0);
}

impl fmt::Display for UserClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uci{}", self.0)
    }
}

/// Time of day in minutes since midnight, `0..1440`.
///
/// Policies may restrict transit to certain windows (e.g. "bulk research
/// traffic only off-peak").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimeOfDay(pub u16);

impl TimeOfDay {
    /// Noon; the default evaluation time.
    pub const NOON: TimeOfDay = TimeOfDay(12 * 60);

    /// Constructs from an hour and minute.
    ///
    /// # Panics
    /// Panics if `hour >= 24` or `minute >= 60`.
    pub fn hm(hour: u16, minute: u16) -> TimeOfDay {
        assert!(hour < 24 && minute < 60);
        TimeOfDay(hour * 60 + minute)
    }

    /// Whether this time lies in `[start, end)`, treating windows that wrap
    /// midnight correctly (e.g. 22:00–06:00).
    pub fn in_window(self, start: TimeOfDay, end: TimeOfDay) -> bool {
        if start <= end {
            self >= start && self < end
        } else {
            self >= start || self < end
        }
    }
}

impl Default for TimeOfDay {
    fn default() -> Self {
        TimeOfDay::NOON
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}", self.0 / 60, self.0 % 60)
    }
}

/// The classification of one flow of inter-AD traffic: everything a policy
/// may condition on, except the path itself.
///
/// A `FlowSpec` is what a Route Server synthesizes a policy route *for*,
/// and what a Policy Gateway validates packets *against*. The paper notes
/// (Section 5.4.1) that one policy route "can support multiple pairs of
/// hosts in the source and destination ADs" — hence host addresses do not
/// appear here, only AD-granularity attributes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowSpec {
    /// Originating AD.
    pub src: AdId,
    /// Destination AD.
    pub dst: AdId,
    /// Requested Quality of Service.
    pub qos: QosClass,
    /// User class of the originator.
    pub uci: UserClass,
    /// Time of day at which the flow is (being) routed.
    pub time: TimeOfDay,
}

impl FlowSpec {
    /// A best-effort, default-class flow at noon.
    pub fn best_effort(src: AdId, dst: AdId) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            qos: QosClass::BEST_EFFORT,
            uci: UserClass::DEFAULT,
            time: TimeOfDay::NOON,
        }
    }

    /// Same flow with a different QOS class.
    pub fn with_qos(mut self, qos: QosClass) -> FlowSpec {
        self.qos = qos;
        self
    }

    /// Same flow with a different user class.
    pub fn with_uci(mut self, uci: UserClass) -> FlowSpec {
        self.uci = uci;
        self
    }

    /// Same flow at a different time of day.
    pub fn at(mut self, time: TimeOfDay) -> FlowSpec {
        self.time = time;
        self
    }
}

impl fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} {} {} @{}",
            self.src, self.dst, self.qos, self.uci, self.time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_windows() {
        let t = TimeOfDay::hm(12, 0);
        assert!(t.in_window(TimeOfDay::hm(9, 0), TimeOfDay::hm(17, 0)));
        assert!(!t.in_window(TimeOfDay::hm(13, 0), TimeOfDay::hm(17, 0)));
        // wrapping window 22:00-06:00
        let night = TimeOfDay::hm(23, 30);
        assert!(night.in_window(TimeOfDay::hm(22, 0), TimeOfDay::hm(6, 0)));
        let dawn = TimeOfDay::hm(5, 59);
        assert!(dawn.in_window(TimeOfDay::hm(22, 0), TimeOfDay::hm(6, 0)));
        assert!(!t.in_window(TimeOfDay::hm(22, 0), TimeOfDay::hm(6, 0)));
        // boundary: start inclusive, end exclusive
        assert!(TimeOfDay::hm(9, 0).in_window(TimeOfDay::hm(9, 0), TimeOfDay::hm(10, 0)));
        assert!(!TimeOfDay::hm(10, 0).in_window(TimeOfDay::hm(9, 0), TimeOfDay::hm(10, 0)));
    }

    #[test]
    #[should_panic]
    fn invalid_time_rejected() {
        TimeOfDay::hm(24, 0);
    }

    #[test]
    fn flow_builders() {
        let f = FlowSpec::best_effort(AdId(1), AdId(2))
            .with_qos(QosClass(3))
            .with_uci(UserClass(1))
            .at(TimeOfDay::hm(3, 0));
        assert_eq!(f.qos, QosClass(3));
        assert_eq!(f.uci, UserClass(1));
        assert_eq!(f.time, TimeOfDay(180));
        assert_eq!(f.src, AdId(1));
    }

    #[test]
    fn display_forms() {
        let f = FlowSpec::best_effort(AdId(1), AdId(2));
        assert_eq!(f.to_string(), "AD1->AD2 qos0 uci0 @12:00");
        assert_eq!(TimeOfDay::hm(7, 5).to_string(), "07:05");
    }
}
