//! One trait over every sweepable axis.
//!
//! Each axis type (workload, protocol, clustering, network,
//! checkpoint policy, failure model, failure injection) carries a
//! hand-written `name()`⇄`parse()` pair whose round trip is pinned by
//! proptest. [`SpecAxis`] unifies those pairs behind one interface with
//! a structured [`ParseError`], so callers that parse axis values out of
//! text — the suite compiler, the sweep CLI — can be generic over the
//! axis and report *which* axis rejected *which* token with the accepted
//! forms attached, instead of bubbling a bare `String`.

use crate::spec::{
    CheckpointPolicySpec, ClusterStrategy, FailureModelSpec, FailureSpec, NetworkSpec,
    ProtocolSpec, TopologySpec,
};
use workloads::WorkloadSpec;

/// A structured axis-parse failure: which axis, which token, what the
/// axis accepts, and the specific complaint. `Display` renders all four,
/// so wrapping layers (suite files add file/line) never lose the axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Axis identifier (`workload`, `protocol`, ...).
    pub axis: &'static str,
    /// The offending input token, verbatim.
    pub token: String,
    /// Summary of the forms the axis accepts.
    pub expected: &'static str,
    /// The specific complaint from the axis parser.
    pub detail: String,
}

impl ParseError {
    pub fn new(axis: &'static str, token: &str, expected: &'static str, detail: String) -> Self {
        ParseError {
            axis,
            token: token.to_string(),
            expected,
            detail,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} `{}`: {} (expected {})",
            self.axis, self.token, self.detail, self.expected
        )
    }
}

impl std::error::Error for ParseError {}

/// The `name()`⇄`parse()` contract every matrix axis implements:
/// `parse(x.name()) == Ok(x)` for every value `x`, and names are
/// injective (two distinct values never share a name). Pinned per axis
/// by the round-trip proptests.
pub trait SpecAxis: Sized {
    /// Axis identifier used in diagnostics.
    const AXIS: &'static str;
    /// Human summary of the accepted textual forms.
    const EXPECTED: &'static str;
    /// Canonical textual form, accepted back by [`SpecAxis::parse`].
    fn name(&self) -> String;
    /// Inverse of [`SpecAxis::name`]; also accepts documented sugar
    /// spellings (e.g. `blocks:4` for `blocks4`).
    fn parse(s: &str) -> Result<Self, ParseError>;
}

/// Implements [`SpecAxis`] by delegating to the type's inherent
/// `name`/`parse` pair (whose errors are bare `String`s).
macro_rules! spec_axis {
    ($ty:ty, $axis:literal, $expected:literal) => {
        impl SpecAxis for $ty {
            const AXIS: &'static str = $axis;
            const EXPECTED: &'static str = $expected;

            fn name(&self) -> String {
                <$ty>::name(self).into()
            }

            fn parse(s: &str) -> Result<Self, ParseError> {
                <$ty>::parse(s).map_err(|detail| ParseError::new($axis, s, $expected, detail))
            }
        }
    };
}

spec_axis!(
    WorkloadSpec,
    "workload",
    "nas:<BT|CG|FT|LU|MG|SP>[:scale=<0<f<=1>][:iters=<n>] | netpipe:<bytes>[:rounds=<n>] | \
     stencil:<ranks>x<iters>[:face=<bytes>][:compute_us=<us>][:wildcard] | \
     master_worker:<ranks>[:tasks=<n>]"
);
spec_axis!(
    ProtocolSpec,
    "protocol",
    "native | {hydee|coordinated|event-logged}[:ckpt<ms>ms | :<policy>][:img<bytes>][:pfs][:nogc]"
);
spec_axis!(
    ClusterStrategy,
    "clusters",
    "single | per-rank | blocks<k> | part<k>"
);
spec_axis!(NetworkSpec, "network", "mx | tcp");
spec_axis!(
    TopologySpec,
    "topology",
    "flat | two-level | fat-tree:<k> | dragonfly:<g>"
);
spec_axis!(
    CheckpointPolicySpec,
    "checkpoint-policy",
    "none | periodic:interval=<ms>[:first=<ms>][:stagger=<ms>] | \
     young-daly[:first=<ms>][:stagger=<ms>] | log-pressure:budget=<bytes>"
);
spec_axis!(
    FailureModelSpec,
    "failure-model",
    "none | fail@<t>us:r<rank>[+<rank>...][,...] | \
     {poisson|cluster|cascade}:mtbf=<ms>:seed=<n>[:max=<n>][:window=<us>][:follow=<pct>]"
);
spec_axis!(
    FailureSpec,
    "failure",
    "fail@<t>us:r<rank>[+<rank>...] | <t>{us|ms}:<ranks> | <ms>:<ranks>"
);

#[cfg(test)]
mod tests {
    use super::*;

    // Generic over the trait on purpose: this is the one consumer-side
    // guarantee the per-axis proptests can't express.
    fn round_trips<A: SpecAxis + PartialEq + std::fmt::Debug>(value: A) {
        let name = SpecAxis::name(&value);
        assert_eq!(A::parse(&name).unwrap(), value, "`{name}`");
    }

    #[test]
    fn every_axis_round_trips_through_the_trait() {
        round_trips(WorkloadSpec::NetPipe {
            rounds: 20,
            bytes: 4096,
        });
        round_trips(ProtocolSpec::hydee());
        round_trips(ClusterStrategy::Partitioned(16));
        round_trips(NetworkSpec::Tcp);
        round_trips(TopologySpec::FatTree { k: 4 });
        round_trips(CheckpointPolicySpec::periodic(40));
        round_trips(FailureModelSpec::poisson(500, 7));
        round_trips(FailureSpec::at_ms(195, vec![7]));
    }

    #[test]
    fn errors_carry_axis_token_and_expected_forms() {
        let err = <ProtocolSpec as SpecAxis>::parse("quic").unwrap_err();
        assert_eq!(err.axis, "protocol");
        assert_eq!(err.token, "quic");
        let shown = err.to_string();
        assert!(shown.contains("protocol"), "{shown}");
        assert!(shown.contains("`quic`"), "{shown}");
        assert!(shown.contains("hydee"), "{shown}");

        let err = <WorkloadSpec as SpecAxis>::parse("bogus:1").unwrap_err();
        assert_eq!(err.axis, "workload");
        assert!(err.to_string().contains("netpipe"), "{err}");
    }
}
