//! Declarative description of one experiment run.
//!
//! A [`ScenarioSpec`] is plain data: a named workload, a protocol
//! parameterisation, a clustering strategy, a network model and a failure
//! schedule. Specs are `Clone + Send + Sync`, so the executor can fan a
//! batch out across threads, and every constituent resolves
//! deterministically — the same spec always produces the same run.

use clustering::{partition, CommGraph, PartitionConfig};
use det_sim::{SimDuration, SimTime};
use mps_sim::{
    Application, Cascade, CheckpointPolicyConfig, ClusterMap, CorrelatedCluster, DetMode,
    FailureModel, FixedSchedule, PoissonPerRank, Rank, SimConfig,
};
use net_model::{MxModel, NetworkModel, StableStorage, TcpModel, Topology, TopologyKind};
use protocols::{
    CoordinatedConfig, CoordinatedFactory, DeterminantCost, EventLoggedFactory, FailureEvent,
    HydeeFactory, HydeeParams, NativeFactory, ProtocolFactory,
};
use serde::Serialize;
use workloads::params::{digits, ms, uint, us, Params};
use workloads::WorkloadSpec;

/// How ranks are grouped into clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ClusterStrategy {
    /// Everyone in one cluster (pure coordinated checkpointing).
    Single,
    /// One cluster per rank (pure message logging).
    PerRank,
    /// `k` contiguous equal blocks.
    Blocks(usize),
    /// The Table-I pipeline: communication-graph partitioning into `k`
    /// balanced clusters.
    Partitioned(usize),
}

impl ClusterStrategy {
    pub fn name(&self) -> String {
        match self {
            ClusterStrategy::Single => "single".into(),
            ClusterStrategy::PerRank => "per-rank".into(),
            ClusterStrategy::Blocks(k) => format!("blocks{k}"),
            ClusterStrategy::Partitioned(k) => format!("part{k}"),
        }
    }

    /// Parse a clustering axis value: `single`, `per-rank`,
    /// `blocks<k>` / `part<k>` (canonical, what `name` emits) or the
    /// sweep-CLI spellings `blocks:<k>` / `part:<k>`.
    pub fn parse(s: &str) -> Result<ClusterStrategy, String> {
        let s = s.trim();
        match s {
            "single" => return Ok(ClusterStrategy::Single),
            "per-rank" => return Ok(ClusterStrategy::PerRank),
            _ => {}
        }
        let keyed = |prefix: &str| -> Option<&str> {
            let rest = s.strip_prefix(prefix)?;
            Some(rest.strip_prefix(':').unwrap_or(rest))
        };
        let (variant, k): (fn(usize) -> ClusterStrategy, &str) = if let Some(k) = keyed("blocks") {
            (ClusterStrategy::Blocks, k)
        } else if let Some(k) = keyed("part") {
            (ClusterStrategy::Partitioned, k)
        } else {
            return Err(format!(
                "unknown clustering `{s}` (want single | per-rank | blocks<k> | part<k>)"
            ));
        };
        let k: usize = digits(k)
            .ok_or_else(|| format!("bad cluster count `{k}` in `{s}` (want a positive integer)"))?;
        if k == 0 {
            return Err(format!("`{s}` needs at least one cluster"));
        }
        Ok(variant(k))
    }

    /// Resolve to a concrete map for `app`. Deterministic.
    pub fn resolve(&self, app: &Application) -> ClusterMap {
        let n = app.n_ranks();
        match self {
            ClusterStrategy::Single => ClusterMap::single(n),
            ClusterStrategy::PerRank => ClusterMap::per_rank(n),
            ClusterStrategy::Blocks(k) => ClusterMap::blocks(n, (*k).min(n)),
            ClusterStrategy::Partitioned(k) => {
                let graph = CommGraph::from_application(app);
                partition(&graph, &PartitionConfig::balanced((*k).min(n), n))
            }
        }
    }

    /// Cluster count [`ClusterStrategy::resolve`] will produce for an
    /// `n_ranks`-rank workload, without building the application (used
    /// by the sweep CLI to warn about `--shards` clamping up front).
    pub fn n_clusters_for(&self, n_ranks: usize) -> usize {
        match self {
            ClusterStrategy::Single => 1,
            ClusterStrategy::PerRank => n_ranks,
            ClusterStrategy::Blocks(k) | ClusterStrategy::Partitioned(k) => (*k).min(n_ranks),
        }
    }
}

/// Which point-to-point network prices the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum NetworkSpec {
    /// Myrinet 10G / MX (the paper's testbed).
    #[default]
    Mx,
    /// MPICH2-nemesis over TCP on the same fabric.
    Tcp,
}

impl NetworkSpec {
    pub fn name(&self) -> &'static str {
        match self {
            NetworkSpec::Mx => "mx",
            NetworkSpec::Tcp => "tcp",
        }
    }

    /// Parse a network axis value (`mx` | `tcp`).
    pub fn parse(s: &str) -> Result<NetworkSpec, String> {
        match s.trim() {
            "mx" => Ok(NetworkSpec::Mx),
            "tcp" => Ok(NetworkSpec::Tcp),
            other => Err(format!("unknown network `{other}` (want mx | tcp)")),
        }
    }

    pub fn build(&self) -> Box<dyn NetworkModel> {
        match self {
            NetworkSpec::Mx => Box::new(MxModel::default()),
            NetworkSpec::Tcp => Box::new(TcpModel::default()),
        }
    }
}

/// Which interconnect topology prices `(src, dst)` pairs (DESIGN.md
/// §2.9). `Flat` is the byte-identical oracle of the plain size-only
/// network model; the other variants tier traffic by the link classes
/// separating the endpoints' clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum TopologySpec {
    /// Uniform all-to-all pricing (the pre-topology behaviour).
    #[default]
    Flat,
    /// Intra-cluster vs inter-cluster, one switch level.
    TwoLevel,
    /// k-ary fat tree over clusters; cost grows with tree distance.
    FatTree { k: u32 },
    /// Dragonfly with `g` groups of clusters: local vs global links.
    Dragonfly { g: u32 },
}

impl TopologySpec {
    /// Canonical name; [`TopologySpec::parse`] round-trips it.
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Flat => "flat".into(),
            TopologySpec::TwoLevel => "two-level".into(),
            TopologySpec::FatTree { k } => format!("fat-tree:{k}"),
            TopologySpec::Dragonfly { g } => format!("dragonfly:{g}"),
        }
    }

    /// Parse a topology axis value:
    /// `flat | two-level | fat-tree:<k> | dragonfly:<g>`.
    pub fn parse(s: &str) -> Result<TopologySpec, String> {
        let s = s.trim();
        match s {
            "flat" => return Ok(TopologySpec::Flat),
            "two-level" => return Ok(TopologySpec::TwoLevel),
            _ => {}
        }
        let err = || {
            format!(
                "unknown topology `{s}` \
                 (want flat | two-level | fat-tree:<k> | dragonfly:<g>)"
            )
        };
        let (kind, arg) = s.split_once(':').ok_or_else(err)?;
        let n: u32 = digits(arg)
            .ok_or_else(|| format!("bad parameter `{arg}` in `{s}` (want a positive integer)"))?;
        match kind {
            "fat-tree" => {
                if n < 2 {
                    return Err(format!("`{s}` needs arity k >= 2"));
                }
                Ok(TopologySpec::FatTree { k: n })
            }
            "dragonfly" => {
                if n == 0 {
                    return Err(format!("`{s}` needs at least one group"));
                }
                Ok(TopologySpec::Dragonfly { g: n })
            }
            _ => Err(err()),
        }
    }

    fn kind(&self) -> TopologyKind {
        match self {
            TopologySpec::Flat => TopologyKind::Flat,
            TopologySpec::TwoLevel => TopologyKind::TwoLevel,
            TopologySpec::FatTree { k } => TopologyKind::FatTree { k: *k },
            TopologySpec::Dragonfly { g } => TopologyKind::Dragonfly { g: *g },
        }
    }

    /// Resolve against the run's base network model and rank->cluster
    /// assignment. Deterministic.
    pub fn build(&self, base: std::sync::Arc<dyn NetworkModel>, cluster_of: Vec<u32>) -> Topology {
        Topology::new(self.kind(), base, cluster_of)
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Stable-storage speed for checkpoint I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum StorageSpec {
    /// `net_model::StableStorage` defaults (1 GB/s write).
    #[default]
    Default,
    /// Parallel-filesystem aggregate: 50 GB/s write, 100 GB/s read.
    ParallelFs,
}

impl StorageSpec {
    pub fn build(&self) -> StableStorage {
        match self {
            StorageSpec::Default => StableStorage::default(),
            StorageSpec::ParallelFs => StableStorage {
                write_bytes_per_us: 50_000,
                read_bytes_per_us: 100_000,
                ..Default::default()
            },
        }
    }
}

/// Declarative checkpoint-scheduling policy (DESIGN.md §2.4) — a
/// sweepable matrix axis. [`CheckpointPolicySpec::name`] and
/// [`CheckpointPolicySpec::parse`] are true inverses (pinned by
/// proptest); `to_config` resolves into the engine-level
/// [`mps_sim::CheckpointPolicyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum CheckpointPolicySpec {
    /// No periodic checkpoints (only the implicit t=0 one).
    #[default]
    None,
    /// Fixed interval; `first_ms`/`stagger_ms` override the protocol's
    /// default first-checkpoint time and per-cluster stagger.
    Periodic {
        interval_ms: u64,
        first_ms: Option<u64>,
        stagger_ms: Option<u64>,
    },
    /// Young's optimal interval, derived per run from the failure
    /// model's expected rate and the measured checkpoint cost.
    YoungDaly {
        first_ms: Option<u64>,
        stagger_ms: Option<u64>,
    },
    /// Checkpoint each time a cluster's sender logs grow by
    /// `budget_bytes` since its last checkpoint.
    LogPressure { budget_bytes: u64 },
}

impl CheckpointPolicySpec {
    pub fn periodic(interval_ms: u64) -> Self {
        CheckpointPolicySpec::Periodic {
            interval_ms,
            first_ms: None,
            stagger_ms: None,
        }
    }

    /// Canonical name; [`CheckpointPolicySpec::parse`] round-trips it.
    pub fn name(&self) -> String {
        let opt = |key: &str, f: &Option<u64>| match f {
            Some(ms) => format!(":{key}={ms}"),
            None => String::new(),
        };
        match self {
            CheckpointPolicySpec::None => "none".into(),
            CheckpointPolicySpec::Periodic {
                interval_ms,
                first_ms,
                stagger_ms,
            } => format!(
                "periodic:interval={interval_ms}{}{}",
                opt("first", first_ms),
                opt("stagger", stagger_ms)
            ),
            CheckpointPolicySpec::YoungDaly {
                first_ms,
                stagger_ms,
            } => format!(
                "young-daly{}{}",
                opt("first", first_ms),
                opt("stagger", stagger_ms)
            ),
            CheckpointPolicySpec::LogPressure { budget_bytes } => {
                format!("log-pressure:budget={budget_bytes}")
            }
        }
    }

    /// Parse a checkpoint-policy axis value: `none`,
    /// `periodic:interval=<ms>[:first=<ms>][:stagger=<ms>]`,
    /// `young-daly[:first=<ms>][:stagger=<ms>]` or
    /// `log-pressure:budget=<bytes>`, its parameters read by the shared
    /// strict [`Params`] reader.
    pub fn parse(s: &str) -> Result<CheckpointPolicySpec, String> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(CheckpointPolicySpec::None);
        }
        let mut segs = s.split(':');
        let kind = segs.next().unwrap_or_default();
        let keys: &[&str] = match kind {
            "periodic" => &["interval", "first", "stagger"],
            "young-daly" => &["first", "stagger"],
            "log-pressure" => &["budget"],
            _ => {
                return Err(format!(
                    "unknown checkpoint policy `{kind}` in `{s}` \
                     (want none | periodic | young-daly | log-pressure)"
                ))
            }
        };
        let p = Params::read(s, segs, keys, &[])?;
        let (first_ms, stagger_ms) = (p.get("first", ms)?, p.get("stagger", ms)?);
        Ok(match kind {
            "periodic" => CheckpointPolicySpec::Periodic {
                interval_ms: match p.get("interval", ms)? {
                    Some(0) => return Err(format!("`{s}` needs a positive interval")),
                    Some(ms) => ms,
                    None => return Err(format!("policy `{s}` needs interval=<ms>")),
                },
                first_ms,
                stagger_ms,
            },
            "young-daly" => CheckpointPolicySpec::YoungDaly {
                first_ms,
                stagger_ms,
            },
            _ => CheckpointPolicySpec::LogPressure {
                budget_bytes: match p.get("budget", uint)? {
                    Some(0) => return Err(format!("`{s}` needs a positive budget")),
                    Some(bytes) => bytes,
                    None => return Err(format!("policy `{s}` needs budget=<bytes>")),
                },
            },
        })
    }

    /// Resolve into the engine-level policy configuration.
    pub fn to_config(self) -> CheckpointPolicyConfig {
        let first = |ms: Option<u64>| ms.map(SimTime::from_ms);
        let stagger = |ms: Option<u64>| ms.map(SimDuration::from_ms);
        match self {
            CheckpointPolicySpec::None => CheckpointPolicyConfig::Disabled,
            CheckpointPolicySpec::Periodic {
                interval_ms,
                first_ms,
                stagger_ms,
            } => CheckpointPolicyConfig::Periodic {
                interval: SimDuration::from_ms(interval_ms),
                first: first(first_ms),
                stagger: stagger(stagger_ms),
            },
            CheckpointPolicySpec::YoungDaly {
                first_ms,
                stagger_ms,
            } => CheckpointPolicyConfig::YoungDaly {
                first: first(first_ms),
                stagger: stagger(stagger_ms),
            },
            CheckpointPolicySpec::LogPressure { budget_bytes } => {
                CheckpointPolicyConfig::LogPressure { budget_bytes }
            }
        }
    }
}

impl std::fmt::Display for CheckpointPolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Declarative protocol choice + parameters. `to_factory` erases this
/// into the object-safe [`ProtocolFactory`] the executor dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ProtocolSpec {
    /// Native MPICH2, no fault tolerance.
    Native,
    /// HydEE (the paper's protocol).
    Hydee {
        checkpoint: CheckpointPolicySpec,
        image_bytes: u64,
        storage: StorageSpec,
        gc: bool,
    },
    /// Global coordinated checkpointing.
    Coordinated {
        checkpoint: CheckpointPolicySpec,
        image_bytes: u64,
        storage: StorageSpec,
    },
    /// HydEE + reliable determinant writes (the event-logging ablation).
    EventLogged {
        checkpoint: CheckpointPolicySpec,
        image_bytes: u64,
        storage: StorageSpec,
    },
}

/// Default per-rank checkpoint image: 1 MiB keeps sweep checkpoints
/// tractable; the paper-fidelity 64 MiB default of [`hydee::HydeeConfig`]
/// is opt-in via `image_bytes`.
pub const DEFAULT_IMAGE_BYTES: u64 = 1 << 20;

impl ProtocolSpec {
    /// HydEE with no periodic checkpoints (failure-free measurement mode).
    pub fn hydee() -> Self {
        ProtocolSpec::Hydee {
            checkpoint: CheckpointPolicySpec::None,
            image_bytes: DEFAULT_IMAGE_BYTES,
            storage: StorageSpec::Default,
            gc: true,
        }
    }

    pub fn coordinated() -> Self {
        ProtocolSpec::Coordinated {
            checkpoint: CheckpointPolicySpec::None,
            image_bytes: DEFAULT_IMAGE_BYTES,
            storage: StorageSpec::Default,
        }
    }

    pub fn event_logged() -> Self {
        ProtocolSpec::EventLogged {
            checkpoint: CheckpointPolicySpec::None,
            image_bytes: DEFAULT_IMAGE_BYTES,
            storage: StorageSpec::Default,
        }
    }

    /// Whether a checkpoint-policy override applies to this protocol
    /// (everything except `Native`). The matrix uses this to avoid
    /// expanding non-checkpointing protocols across the checkpoint axis,
    /// which would duplicate runs.
    pub fn supports_checkpointing(&self) -> bool {
        !matches!(self, ProtocolSpec::Native)
    }

    /// The protocol's checkpoint policy (`None` variant for `Native`).
    pub fn checkpoint_policy(&self) -> CheckpointPolicySpec {
        match self {
            ProtocolSpec::Native => CheckpointPolicySpec::None,
            ProtocolSpec::Hydee { checkpoint, .. }
            | ProtocolSpec::Coordinated { checkpoint, .. }
            | ProtocolSpec::EventLogged { checkpoint, .. } => *checkpoint,
        }
    }

    /// Copy of `self` with the checkpoint policy replaced (no-op for
    /// `Native`, which takes no checkpoints).
    pub fn with_policy(mut self, policy: CheckpointPolicySpec) -> Self {
        match &mut self {
            ProtocolSpec::Native => {}
            ProtocolSpec::Hydee { checkpoint, .. }
            | ProtocolSpec::Coordinated { checkpoint, .. }
            | ProtocolSpec::EventLogged { checkpoint, .. } => *checkpoint = policy,
        }
        self
    }

    /// Copy of `self` with the checkpoint interval replaced — sugar for
    /// [`ProtocolSpec::with_policy`] with a periodic policy (`None`
    /// disables periodic checkpoints).
    pub fn with_checkpoint_ms(self, ms: Option<u64>) -> Self {
        self.with_policy(match ms {
            Some(interval_ms) => CheckpointPolicySpec::periodic(interval_ms),
            None => CheckpointPolicySpec::None,
        })
    }

    /// Parse a protocol axis value — the inverse of
    /// [`ProtocolSpec::name`]. The family (`native` | `hydee` |
    /// `coordinated` | `event-logged`) is followed by `:`-separated
    /// parameter segments in any order:
    ///
    /// ```text
    /// ckpt<ms>ms                      periodic checkpoints every <ms>
    /// periodic|young-daly|log-pressure[...key=value...]
    ///                                 full checkpoint-policy form
    /// none                            explicitly no checkpoints
    /// img<bytes>                      per-rank checkpoint image size
    /// pfs                             parallel-filesystem storage
    /// nogc                            disable sender-log GC (hydee only)
    /// ```
    pub fn parse(s: &str) -> Result<ProtocolSpec, String> {
        let s = s.trim();
        let mut segs = s.split(':').peekable();
        let family = segs.next().unwrap_or_default();
        match family {
            "native" if segs.peek().is_none() => return Ok(ProtocolSpec::Native),
            "native" => return Err(format!("`native` takes no parameters (got `{s}`)")),
            "hydee" | "coordinated" | "event-logged" => {}
            _ => {
                return Err(format!(
                    "unknown protocol `{family}` in `{s}` \
                     (want native | hydee | coordinated | event-logged)"
                ))
            }
        }
        let mut checkpoint = CheckpointPolicySpec::None;
        let mut image_bytes = DEFAULT_IMAGE_BYTES;
        let mut storage = StorageSpec::Default;
        let mut gc = true;
        // Each setting may be given once.
        let mut seen: Vec<&str> = Vec::new();
        while let Some(seg) = segs.next() {
            let setting = if let Some(ms) =
                seg.strip_prefix("ckpt").and_then(|x| x.strip_suffix("ms"))
            {
                checkpoint = CheckpointPolicySpec::parse(&format!("periodic:interval={ms}"))
                    .map_err(|e| format!("`{seg}` in `{s}`: {e}"))?;
                "checkpoint setting"
            } else if matches!(seg, "periodic" | "young-daly" | "log-pressure" | "none") {
                // A policy head absorbs every following key=value segment,
                // which the policy's own strict reader then takes.
                let mut policy = seg.to_string();
                while let Some(kv) = segs.next_if(|next| next.contains('=')) {
                    policy = format!("{policy}:{kv}");
                }
                checkpoint = CheckpointPolicySpec::parse(&policy)?;
                "checkpoint setting"
            } else if let Some(b) = seg.strip_prefix("img") {
                image_bytes = digits(b)
                    .ok_or_else(|| format!("bad image size `{seg}` in `{s}` (want img<bytes>)"))?;
                "`img`"
            } else if seg == "pfs" {
                storage = StorageSpec::ParallelFs;
                "`pfs`"
            } else if seg == "nogc" && family == "hydee" {
                gc = false;
                "`nogc`"
            } else if seg.is_empty() {
                return Err(format!(
                    "empty parameter segment in `{s}` (stray or trailing `:`)"
                ));
            } else {
                return Err(format!(
                    "unknown protocol parameter `{seg}` in `{s}` \
                     (want ckpt<ms>ms | <policy> | img<bytes> | pfs | nogc, hydee only)"
                ));
            };
            if seen.contains(&setting) {
                return Err(format!("more than one {setting} in `{s}`"));
            }
            seen.push(setting);
        }
        Ok(match family {
            "hydee" => ProtocolSpec::Hydee {
                checkpoint,
                image_bytes,
                storage,
                gc,
            },
            "coordinated" => ProtocolSpec::Coordinated {
                checkpoint,
                image_bytes,
                storage,
            },
            _ => ProtocolSpec::EventLogged {
                checkpoint,
                image_bytes,
                storage,
            },
        })
    }

    /// Name encoding every non-default parameter, so two distinct
    /// `ProtocolSpec`s never share a name (spec labels and summary cells
    /// key on it).
    pub fn name(&self) -> String {
        // Plain periodic policies keep the historical `:ckpt<ms>ms`
        // segment; other policies embed their canonical name. The forms
        // never collide, so names stay injective across parameters.
        let ckpt = |p: &CheckpointPolicySpec| match p {
            CheckpointPolicySpec::None => String::new(),
            CheckpointPolicySpec::Periodic {
                interval_ms,
                first_ms: None,
                stagger_ms: None,
            } => format!(":ckpt{interval_ms}ms"),
            p => format!(":{}", p.name()),
        };
        let img = |bytes: &u64| {
            if *bytes == DEFAULT_IMAGE_BYTES {
                String::new()
            } else {
                format!(":img{bytes}")
            }
        };
        let stor = |s: &StorageSpec| match s {
            StorageSpec::Default => String::new(),
            StorageSpec::ParallelFs => ":pfs".into(),
        };
        match self {
            ProtocolSpec::Native => "native".into(),
            ProtocolSpec::Hydee {
                checkpoint,
                image_bytes,
                storage,
                gc,
            } => format!(
                "hydee{}{}{}{}",
                ckpt(checkpoint),
                img(image_bytes),
                stor(storage),
                if *gc { "" } else { ":nogc" }
            ),
            ProtocolSpec::Coordinated {
                checkpoint,
                image_bytes,
                storage,
            } => format!(
                "coordinated{}{}{}",
                ckpt(checkpoint),
                img(image_bytes),
                stor(storage)
            ),
            ProtocolSpec::EventLogged {
                checkpoint,
                image_bytes,
                storage,
            } => format!(
                "event-logged{}{}{}",
                ckpt(checkpoint),
                img(image_bytes),
                stor(storage)
            ),
        }
    }

    fn hydee_params(
        checkpoint: CheckpointPolicySpec,
        image_bytes: u64,
        storage: StorageSpec,
        gc: bool,
    ) -> HydeeParams {
        HydeeParams {
            checkpoint_policy: Some(checkpoint.to_config()),
            image_bytes: Some(image_bytes),
            storage: Some(storage.build()),
            disable_gc: !gc,
        }
    }

    /// Erase into the object-safe factory.
    pub fn to_factory(self) -> Box<dyn ProtocolFactory> {
        match self {
            ProtocolSpec::Native => Box::new(NativeFactory),
            ProtocolSpec::Hydee {
                checkpoint,
                image_bytes,
                storage,
                gc,
            } => Box::new(HydeeFactory::new(Self::hydee_params(
                checkpoint,
                image_bytes,
                storage,
                gc,
            ))),
            ProtocolSpec::Coordinated {
                checkpoint,
                image_bytes,
                storage,
            } => Box::new(CoordinatedFactory::new(CoordinatedConfig {
                checkpoint_policy: checkpoint.to_config(),
                image_bytes,
                storage: storage.build(),
                ..Default::default()
            })),
            ProtocolSpec::EventLogged {
                checkpoint,
                image_bytes,
                storage,
            } => Box::new(EventLoggedFactory::new(
                Self::hydee_params(checkpoint, image_bytes, storage, true),
                DeterminantCost::default(),
            )),
        }
    }
}

/// A declarative failure schedule entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FailureSpec {
    /// Injection time in microseconds of simulated time.
    pub at_us: u64,
    /// Ranks failing concurrently at that instant.
    pub ranks: Vec<u32>,
}

impl FailureSpec {
    pub fn at_ms(ms: u64, ranks: Vec<u32>) -> Self {
        FailureSpec {
            at_us: ms * 1000,
            ranks,
        }
    }

    pub fn at_us(us: u64, ranks: Vec<u32>) -> Self {
        FailureSpec { at_us: us, ranks }
    }

    pub fn to_event(&self) -> FailureEvent {
        FailureEvent {
            at: SimTime::from_us(self.at_us),
            ranks: self.ranks.iter().copied().map(Rank).collect(),
        }
    }

    /// Canonical name; [`FailureSpec::parse`] round-trips it.
    pub fn name(&self) -> String {
        format!(
            "fail@{}us:r{}",
            self.at_us,
            self.ranks
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("+")
        )
    }

    /// Parse one failure injection. Accepted forms:
    ///
    /// ```text
    /// fail@<t>us:r<rank>[+<rank>...]   (canonical, what `name` emits)
    /// <t>us:<ranks>  |  <t>ms:<ranks>  (explicit unit, optional `r`)
    /// <t>:<ranks>                      (legacy sweep form: milliseconds)
    /// ```
    pub fn parse(s: &str) -> Result<FailureSpec, String> {
        let s = s.trim();
        let body = s.strip_prefix("fail@").unwrap_or(s);
        let (time, ranks) = body
            .split_once(':')
            .ok_or_else(|| format!("bad failure injection `{s}` (want <time>:<ranks>)"))?;
        // The time reads through the shared unit readers, so a value
        // whose picosecond conversion would wrap is refused here.
        let at_us = match time.strip_suffix("us") {
            Some(t) => us("time", t, s)?,
            // Milliseconds, with or without the unit (the legacy sweep
            // form); MAX_MS * 1000 is still below MAX_US.
            None => 1000 * ms("time", time.strip_suffix("ms").unwrap_or(time), s)?,
        };
        let ranks: Vec<u32> = ranks
            .strip_prefix('r')
            .unwrap_or(ranks)
            .split('+')
            .map(|r| digits(r).ok_or_else(|| format!("bad failure rank `{r}` in `{s}`")))
            .collect::<Result<_, String>>()?;
        Ok(FailureSpec { at_us, ranks })
    }
}

impl std::fmt::Display for FailureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Default event cap for stochastic failure models: keeps an
/// unfortunate seed from turning a sweep cell into an endless
/// crash-recover-crash loop. For `Cascade` the cap bounds *primary*
/// failures; follow-ups add at most `4 × max` more (the chain-depth
/// limit), so the total stays finite either way.
pub const DEFAULT_MAX_FAILURES: u32 = 8;

/// Declarative fault-injection model. `build` resolves it against the
/// run's cluster map into the engine-level [`mps_sim::FailureModel`]
/// generator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum FailureModelSpec {
    /// Hand-written schedule (empty list = clean run). The equivalence
    /// oracle: reproduces the old static failure-list path bit-for-bit.
    Fixed(Vec<FailureSpec>),
    /// Independent per-rank exponential failures (`mtbf_ms` per rank).
    Poisson {
        mtbf_ms: u64,
        seed: u64,
        max_failures: u32,
    },
    /// Node/cluster-correlated failures: a failure takes down a whole
    /// cluster of the run's resolved cluster map (`mtbf_ms` per cluster).
    Correlated {
        mtbf_ms: u64,
        seed: u64,
        max_failures: u32,
    },
    /// Poisson primaries plus follow-up failures: each failure spawns,
    /// with probability `follow_pct`%, another rank's failure within
    /// `window_us` — the failure-during-recovery regime. `max_failures`
    /// caps the *primaries*; follow-up chains are depth-limited to 4
    /// per primary, so total events stay ≤ `5 × max_failures`.
    Cascade {
        mtbf_ms: u64,
        seed: u64,
        max_failures: u32,
        window_us: u64,
        follow_pct: u8,
    },
}

impl Default for FailureModelSpec {
    fn default() -> Self {
        FailureModelSpec::none()
    }
}

impl FailureModelSpec {
    /// The clean run (no failures).
    pub fn none() -> Self {
        FailureModelSpec::Fixed(Vec::new())
    }

    pub fn poisson(mtbf_ms: u64, seed: u64) -> Self {
        FailureModelSpec::Poisson {
            mtbf_ms,
            seed,
            max_failures: DEFAULT_MAX_FAILURES,
        }
    }

    pub fn correlated(mtbf_ms: u64, seed: u64) -> Self {
        FailureModelSpec::Correlated {
            mtbf_ms,
            seed,
            max_failures: DEFAULT_MAX_FAILURES,
        }
    }

    pub fn cascade(mtbf_ms: u64, seed: u64, window_us: u64, follow_pct: u8) -> Self {
        FailureModelSpec::Cascade {
            mtbf_ms,
            seed,
            max_failures: DEFAULT_MAX_FAILURES,
            window_us,
            follow_pct,
        }
    }

    /// Number of *scheduled* failure events (stochastic models report 0
    /// here; their actual injections land in the run metrics).
    pub fn scheduled_failures(&self) -> usize {
        match self {
            FailureModelSpec::Fixed(v) => v.len(),
            _ => 0,
        }
    }

    /// First scheduled rank outside `0..n_ranks`, if any. Parse cannot
    /// check this (the rank count depends on the workload axis), so the
    /// executor validates before running — a bad rank would otherwise
    /// panic inside the engine. Stochastic models draw in-range ranks by
    /// construction.
    pub fn invalid_rank(&self, n_ranks: usize) -> Option<u32> {
        match self {
            FailureModelSpec::Fixed(v) => v
                .iter()
                .flat_map(|f| f.ranks.iter())
                .copied()
                .find(|&r| r as usize >= n_ranks),
            _ => None,
        }
    }

    /// Canonical name; [`FailureModelSpec::parse`] round-trips it. The
    /// empty fixed schedule is named `none`.
    pub fn name(&self) -> String {
        let max = |m: &u32| {
            if *m == DEFAULT_MAX_FAILURES {
                String::new()
            } else {
                format!(":max={m}")
            }
        };
        match self {
            FailureModelSpec::Fixed(v) if v.is_empty() => "none".into(),
            FailureModelSpec::Fixed(v) => v
                .iter()
                .map(FailureSpec::name)
                .collect::<Vec<_>>()
                .join(","),
            FailureModelSpec::Poisson {
                mtbf_ms,
                seed,
                max_failures,
            } => format!("poisson:mtbf={mtbf_ms}:seed={seed}{}", max(max_failures)),
            FailureModelSpec::Correlated {
                mtbf_ms,
                seed,
                max_failures,
            } => format!("cluster:mtbf={mtbf_ms}:seed={seed}{}", max(max_failures)),
            FailureModelSpec::Cascade {
                mtbf_ms,
                seed,
                max_failures,
                window_us,
                follow_pct,
            } => format!(
                "cascade:mtbf={mtbf_ms}:seed={seed}:window={window_us}:follow={follow_pct}{}",
                max(max_failures)
            ),
        }
    }

    /// Parse a failure axis value: `none`, a comma-separated fixed
    /// schedule of [`FailureSpec`] injections, or a stochastic model
    /// (`poisson:...`, `cluster:...`, `cascade:...` with `mtbf=<ms>`,
    /// `seed=<n>`, optional `max=<n>`, and for cascade `window=<us>`,
    /// `follow=<pct>`).
    pub fn parse(s: &str) -> Result<FailureModelSpec, String> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(FailureModelSpec::none());
        }
        let kind = s.split(':').next().unwrap_or_default();
        if !matches!(kind, "poisson" | "cluster" | "cascade") {
            let events = s
                .split(',')
                .map(|f| {
                    let f = f.trim();
                    if f.is_empty() {
                        return Err(format!(
                            "empty injection in schedule `{s}` (stray or trailing `,`)"
                        ));
                    }
                    FailureSpec::parse(f)
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(FailureModelSpec::Fixed(events));
        }
        let keys: &[&str] = if kind == "cascade" {
            &["mtbf", "seed", "max", "window", "follow"]
        } else {
            &["mtbf", "seed", "max"]
        };
        let p = Params::read(s, s.split(':').skip(1), keys, &[])?;
        let mtbf_ms = match p.get("mtbf", ms)? {
            Some(0) => return Err(format!("model `{s}` needs a positive mtbf")),
            Some(ms) => ms,
            None => return Err(format!("model `{s}` needs mtbf=<ms>")),
        };
        let seed = p.get("seed", uint)?.unwrap_or(0);
        let max_failures = p.get("max", uint)?.unwrap_or(DEFAULT_MAX_FAILURES);
        let window_us = p.get("window", us)?.unwrap_or(1000);
        if window_us == 0 {
            return Err(format!("model `{s}` needs a positive window"));
        }
        let follow_pct = match p.get("follow", uint::<u8>)? {
            Some(pct) if pct > 100 => {
                return Err(format!("`follow={pct}` in `{s}` is a percentage (0-100)"))
            }
            pct => pct.unwrap_or(50),
        };
        Ok(match kind {
            "poisson" => FailureModelSpec::Poisson {
                mtbf_ms,
                seed,
                max_failures,
            },
            "cluster" => FailureModelSpec::Correlated {
                mtbf_ms,
                seed,
                max_failures,
            },
            _ => FailureModelSpec::Cascade {
                mtbf_ms,
                seed,
                max_failures,
                window_us,
                follow_pct,
            },
        })
    }

    /// Resolve into the engine-level generator for a run over `clusters`.
    /// Deterministic: the spec (plus the cluster map for `Correlated`)
    /// fully determines the failure sequence.
    pub fn build(&self, clusters: &ClusterMap) -> Box<dyn FailureModel> {
        let n_ranks = clusters.n_ranks();
        match self {
            FailureModelSpec::Fixed(v) => Box::new(FixedSchedule::new(
                v.iter().map(FailureSpec::to_event).collect(),
            )),
            FailureModelSpec::Poisson {
                mtbf_ms,
                seed,
                max_failures,
            } => Box::new(
                PoissonPerRank::new(n_ranks, SimDuration::from_ms(*mtbf_ms), *seed)
                    .with_max_failures(*max_failures),
            ),
            FailureModelSpec::Correlated {
                mtbf_ms,
                seed,
                max_failures,
            } => Box::new(
                CorrelatedCluster::from_cluster_map(
                    clusters,
                    SimDuration::from_ms(*mtbf_ms),
                    *seed,
                )
                .with_max_failures(*max_failures),
            ),
            FailureModelSpec::Cascade {
                mtbf_ms,
                seed,
                max_failures,
                window_us,
                follow_pct,
            } => {
                let base = PoissonPerRank::new(n_ranks, SimDuration::from_ms(*mtbf_ms), *seed)
                    .with_max_failures(*max_failures);
                Box::new(Cascade::new(
                    Box::new(base),
                    n_ranks,
                    SimDuration::from_us(*window_us),
                    *follow_pct as f64 / 100.0,
                    *seed,
                ))
            }
        }
    }
}

/// One declarative run: the unit the executor consumes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    pub workload: WorkloadSpec,
    pub protocol: ProtocolSpec,
    pub clusters: ClusterStrategy,
    pub network: NetworkSpec,
    /// Interconnect topology pricing `(src, dst)` pairs over the
    /// resolved cluster map (DESIGN.md §2.9). `Flat` reproduces the
    /// size-only pricing bit-for-bit.
    pub topology: TopologySpec,
    /// Fault-injection model (fixed schedule or stochastic generator).
    pub failure_model: FailureModelSpec,
    /// `false`: static clustering analysis only, no simulation (Table I).
    pub simulate: bool,
    /// Engine runaway guard override.
    pub max_events: Option<u64>,
    /// Parallel-engine shard count (DESIGN.md §2.8): 1 = serial engine;
    /// higher values request the cluster-sharded engine (clamped to the
    /// cluster count, serial fallback under failure models — results
    /// are bit-for-bit identical either way).
    pub shards: usize,
}

impl ScenarioSpec {
    /// A runnable default: simulate under MX with no failures.
    pub fn new(workload: WorkloadSpec, protocol: ProtocolSpec, clusters: ClusterStrategy) -> Self {
        ScenarioSpec {
            workload,
            protocol,
            clusters,
            network: NetworkSpec::Mx,
            topology: TopologySpec::Flat,
            failure_model: FailureModelSpec::none(),
            simulate: true,
            max_events: None,
            shards: 1,
        }
    }

    /// Request the parallel engine with `n` cluster shards.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Replace the interconnect topology.
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Replace the failure model with a fixed schedule (the pre-model
    /// call shape, kept because half the bench binaries use it).
    pub fn with_failures(mut self, failures: Vec<FailureSpec>) -> Self {
        self.failure_model = FailureModelSpec::Fixed(failures);
        self
    }

    pub fn with_failure_model(mut self, model: FailureModelSpec) -> Self {
        self.failure_model = model;
        self
    }

    /// Deterministic human-readable label, unique within a matrix.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}/{}",
            self.workload.name(),
            self.protocol.name(),
            self.clusters.name(),
            self.network.name()
        );
        // Flat runs keep their historical labels; only tiered
        // topologies grow a segment.
        if self.topology != TopologySpec::Flat {
            s.push('/');
            s.push_str(&self.topology.name());
        }
        match &self.failure_model {
            // Fixed schedules keep the historical one-segment-per-failure
            // labels (clean runs add nothing).
            FailureModelSpec::Fixed(v) => {
                for f in v {
                    s.push('/');
                    s.push_str(&f.name());
                }
            }
            model => {
                s.push('/');
                s.push_str(&model.name());
            }
        }
        if !self.simulate {
            s.push_str("/static");
        }
        // Serial runs keep their historical labels; only parallel
        // requests grow a segment.
        if self.shards > 1 {
            s.push_str(&format!("/shards{}", self.shards));
        }
        s
    }

    /// Engine configuration for this spec.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig {
            det_mode: DetMode::SendDeterministic,
            network: self.network.build().into(),
            ..Default::default()
        };
        if let Some(m) = self.max_events {
            cfg.max_events = m;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_strategies_resolve() {
        let app = WorkloadSpec::NetPipe {
            rounds: 1,
            bytes: 64,
        }
        .build();
        assert_eq!(ClusterStrategy::Single.resolve(&app).n_clusters(), 1);
        assert_eq!(ClusterStrategy::PerRank.resolve(&app).n_clusters(), 2);
        assert_eq!(ClusterStrategy::Blocks(2).resolve(&app).n_clusters(), 2);
        // k is clamped to n_ranks.
        assert_eq!(ClusterStrategy::Blocks(64).resolve(&app).n_clusters(), 2);
        assert_eq!(
            ClusterStrategy::Partitioned(2).resolve(&app).n_clusters(),
            2
        );
    }

    #[test]
    fn labels_are_distinct_across_axes() {
        let w = WorkloadSpec::NetPipe {
            rounds: 1,
            bytes: 64,
        };
        let a = ScenarioSpec::new(w.clone(), ProtocolSpec::Native, ClusterStrategy::Single);
        let mut b = a.clone();
        b.protocol = ProtocolSpec::hydee();
        let mut c = a.clone();
        c.failure_model = FailureModelSpec::Fixed(vec![FailureSpec::at_ms(1, vec![0])]);
        let mut d = a.clone();
        d.simulate = false;
        let mut e = a.clone();
        e.failure_model = FailureModelSpec::poisson(500, 7);
        let labels = [a.label(), b.label(), c.label(), d.label(), e.label()];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len(), "{labels:?}");
    }

    #[test]
    fn protocol_names_encode_every_parameter() {
        let variants = [
            ProtocolSpec::hydee(),
            ProtocolSpec::hydee().with_checkpoint_ms(Some(100)),
            ProtocolSpec::hydee().with_policy(CheckpointPolicySpec::Periodic {
                interval_ms: 100,
                first_ms: Some(2),
                stagger_ms: None,
            }),
            ProtocolSpec::hydee().with_policy(CheckpointPolicySpec::YoungDaly {
                first_ms: None,
                stagger_ms: None,
            }),
            ProtocolSpec::hydee().with_policy(CheckpointPolicySpec::LogPressure {
                budget_bytes: 1 << 20,
            }),
            ProtocolSpec::Hydee {
                checkpoint: CheckpointPolicySpec::None,
                image_bytes: DEFAULT_IMAGE_BYTES,
                storage: StorageSpec::ParallelFs,
                gc: true,
            },
            ProtocolSpec::Hydee {
                checkpoint: CheckpointPolicySpec::None,
                image_bytes: 64 << 20,
                storage: StorageSpec::Default,
                gc: true,
            },
            ProtocolSpec::Hydee {
                checkpoint: CheckpointPolicySpec::None,
                image_bytes: DEFAULT_IMAGE_BYTES,
                storage: StorageSpec::Default,
                gc: false,
            },
            ProtocolSpec::coordinated(),
            ProtocolSpec::event_logged(),
        ];
        let names: std::collections::BTreeSet<String> = variants.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), variants.len(), "{names:?}");
    }

    #[test]
    fn protocol_name_parse_round_trips() {
        let variants = [
            ProtocolSpec::Native,
            ProtocolSpec::hydee(),
            ProtocolSpec::hydee().with_checkpoint_ms(Some(100)),
            ProtocolSpec::hydee().with_policy(CheckpointPolicySpec::Periodic {
                interval_ms: 100,
                first_ms: Some(2),
                stagger_ms: Some(1),
            }),
            ProtocolSpec::hydee().with_policy(CheckpointPolicySpec::YoungDaly {
                first_ms: Some(1),
                stagger_ms: Some(0),
            }),
            ProtocolSpec::hydee().with_policy(CheckpointPolicySpec::LogPressure {
                budget_bytes: 8 << 20,
            }),
            ProtocolSpec::Hydee {
                checkpoint: CheckpointPolicySpec::periodic(5),
                image_bytes: 64 << 20,
                storage: StorageSpec::ParallelFs,
                gc: false,
            },
            ProtocolSpec::coordinated().with_checkpoint_ms(Some(100)),
            ProtocolSpec::EventLogged {
                checkpoint: CheckpointPolicySpec::None,
                image_bytes: 2 << 20,
                storage: StorageSpec::Default,
            },
        ];
        for p in &variants {
            let name = p.name();
            assert_eq!(
                &ProtocolSpec::parse(&name).unwrap(),
                p,
                "`{name}` round-tripped differently"
            );
        }
        // Parameter segments compose in any order.
        assert_eq!(
            ProtocolSpec::parse("hydee:pfs:ckpt100ms").unwrap(),
            ProtocolSpec::parse("hydee:ckpt100ms:pfs").unwrap()
        );
    }

    #[test]
    fn protocol_parse_rejects_garbage() {
        for bad in [
            "mpi",
            "native:ckpt5ms",
            "hydee:bogus",
            "hydee:ckpt5ms:",
            "hydee::pfs",
            "hydee:ckpt5ms:ckpt9ms",
            "hydee:ckpt5ms:young-daly",
            "hydee:ckptXms",
            "hydee:ckpt+5ms",
            "hydee:img",
            "hydee:img1:img2",
            "hydee:pfs:pfs",
            "coordinated:nogc",
            "event-logged:nogc",
        ] {
            assert!(ProtocolSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn cluster_strategy_name_parse_round_trips() {
        let variants = [
            ClusterStrategy::Single,
            ClusterStrategy::PerRank,
            ClusterStrategy::Blocks(4),
            ClusterStrategy::Partitioned(16),
        ];
        for c in &variants {
            assert_eq!(&ClusterStrategy::parse(&c.name()).unwrap(), c);
        }
        // The sweep-CLI spellings stay accepted.
        assert_eq!(
            ClusterStrategy::parse("blocks:4").unwrap(),
            ClusterStrategy::Blocks(4)
        );
        assert_eq!(
            ClusterStrategy::parse("part:16").unwrap(),
            ClusterStrategy::Partitioned(16)
        );
        for bad in ["ring", "blocks", "blocks0", "part+4", "part4x", "blocks:"] {
            assert!(ClusterStrategy::parse(bad).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn topology_name_parse_round_trips() {
        let variants = [
            TopologySpec::Flat,
            TopologySpec::TwoLevel,
            TopologySpec::FatTree { k: 4 },
            TopologySpec::Dragonfly { g: 2 },
        ];
        for t in &variants {
            let name = t.name();
            assert_eq!(t.to_string(), name);
            assert_eq!(
                &TopologySpec::parse(&name).unwrap(),
                t,
                "`{name}` round-tripped differently"
            );
        }
        let names: std::collections::BTreeSet<String> = variants.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), variants.len(), "names are injective");
        for bad in [
            "mesh",
            "fat-tree",
            "fat-tree:1",
            "fat-tree:x",
            "fat-tree:+4",
            "dragonfly",
            "dragonfly:0",
            "two-level:2",
        ] {
            assert!(TopologySpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn topology_labels_only_tiered_runs() {
        let w = WorkloadSpec::NetPipe {
            rounds: 1,
            bytes: 64,
        };
        let flat = ScenarioSpec::new(w.clone(), ProtocolSpec::hydee(), ClusterStrategy::Blocks(2));
        let tiered = flat.clone().with_topology(TopologySpec::FatTree { k: 4 });
        assert!(!flat.label().contains("flat"), "{}", flat.label());
        assert!(tiered.label().contains("/fat-tree:4"), "{}", tiered.label());
        assert_ne!(flat.label(), tiered.label());
    }

    #[test]
    fn network_name_parse_round_trips() {
        for n in [NetworkSpec::Mx, NetworkSpec::Tcp] {
            assert_eq!(NetworkSpec::parse(n.name()).unwrap(), n);
        }
        assert!(NetworkSpec::parse("infiniband").is_err());
    }

    #[test]
    fn strict_parsers_reject_trailing_garbage_and_duplicates() {
        // Empty `:`-segments (trailing or doubled separators).
        assert!(CheckpointPolicySpec::parse("periodic:interval=5:").is_err());
        assert!(CheckpointPolicySpec::parse("periodic::interval=5").is_err());
        assert!(CheckpointPolicySpec::parse("young-daly:").is_err());
        assert!(FailureModelSpec::parse("poisson:mtbf=5::seed=1").is_err());
        assert!(FailureModelSpec::parse("poisson:mtbf=5:seed=1:").is_err());
        // Duplicate keys must error, not last-win.
        assert!(CheckpointPolicySpec::parse("periodic:interval=5:interval=9").is_err());
        assert!(CheckpointPolicySpec::parse("young-daly:first=1:first=2").is_err());
        assert!(FailureModelSpec::parse("poisson:mtbf=5:mtbf=6:seed=1").is_err());
        // Non-canonical numerics (`u64::from_str` would take `+5`).
        assert!(CheckpointPolicySpec::parse("periodic:interval=+5").is_err());
        assert!(FailureModelSpec::parse("poisson:mtbf=+5:seed=1").is_err());
        assert!(FailureSpec::parse("+5:1").is_err());
        assert!(FailureSpec::parse("5:+1").is_err());
        assert!(FailureSpec::parse("5:1 ").is_ok(), "outer trim still fine");
        // Stray commas in fixed schedules.
        assert!(FailureModelSpec::parse("5:1,").is_err());
        assert!(FailureModelSpec::parse(",5:1").is_err());
        assert!(FailureModelSpec::parse("5:1,,6:2").is_err());
    }

    #[test]
    fn failure_spec_parse_accepts_all_forms() {
        let want = FailureSpec::at_ms(195, vec![7]);
        for form in ["fail@195000us:r7", "195000us:7", "195ms:r7", "195:7"] {
            assert_eq!(FailureSpec::parse(form).unwrap(), want, "{form}");
        }
        let multi = FailureSpec::at_us(1500, vec![0, 3, 9]);
        assert_eq!(FailureSpec::parse("fail@1500us:r0+3+9").unwrap(), multi);
        assert_eq!(FailureSpec::parse(&multi.name()).unwrap(), multi);
        assert!(FailureSpec::parse("xyz").is_err());
        assert!(FailureSpec::parse("5:").is_err());
        assert!(FailureSpec::parse(":3").is_err());
    }

    #[test]
    fn failure_model_name_parse_round_trips() {
        let models = [
            FailureModelSpec::none(),
            FailureModelSpec::Fixed(vec![
                FailureSpec::at_us(300, vec![2]),
                FailureSpec::at_ms(2, vec![0, 1]),
            ]),
            FailureModelSpec::poisson(500, 7),
            FailureModelSpec::Poisson {
                mtbf_ms: 500,
                seed: 7,
                max_failures: 2,
            },
            FailureModelSpec::correlated(1000, 9),
            FailureModelSpec::cascade(800, 3, 250, 75),
        ];
        for m in &models {
            let name = m.name();
            assert_eq!(
                &FailureModelSpec::parse(&name).unwrap(),
                m,
                "`{name}` round-tripped differently"
            );
        }
        let names: std::collections::BTreeSet<String> = models.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), models.len(), "names are injective");
    }

    #[test]
    fn failure_model_parse_rejects_values_build_would_panic_on() {
        // These must be parse errors, not panics inside a rayon worker
        // when `build()` runs.
        assert!(
            FailureModelSpec::parse("poisson:seed=1").is_err(),
            "no mtbf"
        );
        assert!(FailureModelSpec::parse("poisson:mtbf=0:seed=1").is_err());
        assert!(FailureModelSpec::parse("cascade:mtbf=5:seed=1:window=0").is_err());
        assert!(
            FailureModelSpec::parse("poisson:mtbf=500:seed=1:max=4294967296").is_err(),
            "out-of-range max must error, not truncate"
        );
        assert!(
            FailureModelSpec::parse("poisson:mtbf=99999999999999999:seed=1").is_err(),
            "mtbf overflowing picoseconds must error at parse time"
        );
        assert!(
            FailureModelSpec::parse("cascade:mtbf=5:seed=1:window=99999999999999999").is_err(),
            "window overflowing picoseconds must error at parse time"
        );
    }

    #[test]
    fn failure_model_builds_against_cluster_map() {
        let map = ClusterMap::blocks(16, 4);
        // Correlated groups come from the map: every event fails 4 ranks.
        let mut model = FailureModelSpec::correlated(100, 1).build(&map);
        let ev = model.next_after(SimTime::ZERO).unwrap();
        assert_eq!(ev.ranks.len(), 4);
        // Fixed schedules resolve to exactly their events.
        let mut fixed = FailureModelSpec::Fixed(vec![FailureSpec::at_ms(1, vec![5])]).build(&map);
        let ev = fixed.next_after(SimTime::ZERO).unwrap();
        assert_eq!(ev.at, SimTime::from_ms(1));
        assert_eq!(ev.ranks, vec![Rank(5)]);
        assert!(fixed.next_after(ev.at).is_none());
    }

    #[test]
    fn checkpoint_override_only_touches_checkpointing_protocols() {
        assert_eq!(
            ProtocolSpec::Native.with_checkpoint_ms(Some(5)),
            ProtocolSpec::Native
        );
        assert_eq!(
            ProtocolSpec::Native.with_policy(CheckpointPolicySpec::YoungDaly {
                first_ms: None,
                stagger_ms: None,
            }),
            ProtocolSpec::Native
        );
        let h = ProtocolSpec::hydee().with_checkpoint_ms(Some(5));
        match h {
            ProtocolSpec::Hydee { checkpoint, .. } => {
                assert_eq!(checkpoint, CheckpointPolicySpec::periodic(5))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checkpoint_policy_name_parse_round_trips() {
        let policies = [
            CheckpointPolicySpec::None,
            CheckpointPolicySpec::periodic(40),
            CheckpointPolicySpec::Periodic {
                interval_ms: 5,
                first_ms: Some(2),
                stagger_ms: None,
            },
            CheckpointPolicySpec::Periodic {
                interval_ms: 5,
                first_ms: Some(2),
                stagger_ms: Some(1),
            },
            CheckpointPolicySpec::YoungDaly {
                first_ms: None,
                stagger_ms: None,
            },
            CheckpointPolicySpec::YoungDaly {
                first_ms: Some(10),
                stagger_ms: Some(0),
            },
            CheckpointPolicySpec::LogPressure {
                budget_bytes: 8 << 20,
            },
        ];
        for p in &policies {
            let name = p.name();
            assert_eq!(p.to_string(), name);
            assert_eq!(
                &CheckpointPolicySpec::parse(&name).unwrap(),
                p,
                "`{name}` round-tripped differently"
            );
        }
        let names: std::collections::BTreeSet<String> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), policies.len(), "names are injective");
    }

    #[test]
    fn checkpoint_policy_parse_rejects_values_build_would_panic_on() {
        assert!(
            CheckpointPolicySpec::parse("periodic").is_err(),
            "no interval"
        );
        assert!(CheckpointPolicySpec::parse("periodic:interval=0").is_err());
        assert!(
            CheckpointPolicySpec::parse("periodic:interval=99999999999999999").is_err(),
            "interval overflowing picoseconds must error at parse time"
        );
        assert!(
            CheckpointPolicySpec::parse("log-pressure").is_err(),
            "no budget"
        );
        assert!(CheckpointPolicySpec::parse("log-pressure:budget=0").is_err());
        assert!(CheckpointPolicySpec::parse("young-daly:budget=5").is_err());
        assert!(CheckpointPolicySpec::parse("sometimes").is_err());
    }
}
