//! Cluster platform models: a two-level hierarchy (cores within a node,
//! nodes behind a switch), with per-level latency/bandwidth, protocol
//! thresholds, and CPU overheads.
//!
//! Four presets are provided:
//!
//! * [`Platform::simcluster`] — the noise-free simulation platform of §III-A
//!   of the paper (32 nodes × 32 cores, 10 Gb/s, 1 µs intra / 2 µs inter).
//! * [`Platform::hydra`], [`Platform::galileo100`], [`Platform::discoverer`]
//!   — analogues of the three production machines of Table I. They are not
//!   one-to-one copies of the real interconnects; they are configured so the
//!   *qualitative* regime differences (latency/bandwidth ratio, protocol
//!   threshold, noise level) that make the three machines disagree about the
//!   best algorithm are present.
//!
//! Beyond the presets, a [`MachineId::Custom`] machine carries parameters
//! fitted by `pap-calibrate` from a measured probe: its name is interned
//! process-wide (so `MachineId` stays `Copy + Eq + Hash`) and its
//! [`PlatformSpec`] lives in a global registry populated by
//! [`register_custom_platform`].

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use serde::{Content, Deserialize, Error as SerdeError, Serialize};

use crate::noise::NoiseModel;
use crate::time::SimTime;

/// Latency/bandwidth parameters of one level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// One-way latency in seconds.
    pub latency: SimTime,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkParams {
    /// Pure transfer time of `bytes` over this link (no contention).
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Opaque interned handle of a [`MachineId::Custom`] machine.
///
/// The wrapped index points into the process-global custom-machine registry;
/// two tags are equal iff they name the same (case-normalized) machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CustomTag(u32);

/// Identifier of a machine preset (used by experiment configs and tuning
/// tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    /// Noise-free simulation platform of §III-A.
    SimCluster,
    /// Hydra analogue (36 nodes, Omni-Path 100 Gb/s, Table I).
    Hydra,
    /// Galileo100 analogue (554 nodes, IB HDR100, Table I).
    Galileo100,
    /// Discoverer analogue (1128 nodes, IB HDR Dragonfly+, Table I).
    Discoverer,
    /// A calibrated machine that is not one of the built-in presets. The tag
    /// indexes the process-global registry of interned names and fitted
    /// [`PlatformSpec`]s (see [`register_custom_platform`]).
    Custom(CustomTag),
}

/// Interned names and fitted specs of all custom machines seen by this
/// process. Names are leaked exactly once so `MachineId::name` can keep its
/// `&'static str` return type; the set of distinct custom names per process
/// is tiny (one per calibrated machine).
struct CustomRegistry {
    /// Full display names (`"custom:<name>"`), indexed by tag.
    names: Vec<&'static str>,
    /// Case-normalized bare name → tag index.
    index: HashMap<String, u32>,
    /// Fitted parameters, present once the machine has been registered.
    specs: Vec<Option<PlatformSpec>>,
}

fn custom_registry() -> &'static RwLock<CustomRegistry> {
    static REG: OnceLock<RwLock<CustomRegistry>> = OnceLock::new();
    REG.get_or_init(|| {
        RwLock::new(CustomRegistry { names: Vec::new(), index: HashMap::new(), specs: Vec::new() })
    })
}

/// Largest accepted custom machine name.
pub(crate) const CUSTOM_NAME_MAX: usize = 48;

fn validate_custom_name(name: &str) -> Result<String, String> {
    let norm = name.trim().to_ascii_lowercase();
    if norm.is_empty() || norm.len() > CUSTOM_NAME_MAX {
        return Err(format!("custom machine name must be 1..={CUSTOM_NAME_MAX} characters"));
    }
    if !norm.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c)) {
        return Err(format!("custom machine name '{norm}' has characters outside [a-z0-9._-]"));
    }
    if norm.parse::<MachineId>().map(|m| !m.is_custom()).unwrap_or(false) {
        return Err(format!("'{norm}' is a built-in preset name"));
    }
    Ok(norm)
}

/// Register (or re-register) the fitted parameters of a custom machine and
/// return its [`MachineId`]. Re-registering an existing name replaces the
/// spec in place — recalibration keeps the same tag, so `MachineId` values
/// held elsewhere stay valid and see the new parameters.
pub fn register_custom_platform(name: &str, spec: PlatformSpec) -> Result<MachineId, String> {
    if spec.cores_per_node == 0 || spec.nodes == 0 {
        return Err("custom platform needs at least one node and one core".into());
    }
    let id = MachineId::custom(name)?;
    let MachineId::Custom(tag) = id else { unreachable!("custom() returns Custom") };
    custom_registry().write().unwrap().specs[tag.0 as usize] = Some(spec);
    Ok(id)
}

/// Fitted parameters of a custom machine, if it has been registered.
pub(crate) fn custom_platform_spec(machine: MachineId) -> Option<PlatformSpec> {
    match machine {
        MachineId::Custom(tag) => {
            custom_registry().read().unwrap().specs.get(tag.0 as usize).cloned().flatten()
        }
        _ => None,
    }
}

impl MachineId {
    /// All machine presets, simulation platform first.
    pub const ALL: [MachineId; 4] =
        [MachineId::SimCluster, MachineId::Hydra, MachineId::Galileo100, MachineId::Discoverer];

    /// The three "real machine" presets of Table I.
    pub const REAL: [MachineId; 3] = [MachineId::Hydra, MachineId::Galileo100, MachineId::Discoverer];

    /// Intern a custom machine name. Names are case-normalized and restricted
    /// to `[a-z0-9._-]`; interning does not require a registered spec, so
    /// `"custom:site"` parses (e.g. from a snapshot) before calibration has
    /// run — [`Platform::try_preset`] reports the missing spec.
    pub fn custom(name: &str) -> Result<MachineId, String> {
        let norm = validate_custom_name(name)?;
        let mut reg = custom_registry().write().unwrap();
        if let Some(&tag) = reg.index.get(&norm) {
            return Ok(MachineId::Custom(CustomTag(tag)));
        }
        let tag = u32::try_from(reg.names.len()).expect("custom machine registry overflow");
        let display: &'static str = Box::leak(format!("custom:{norm}").into_boxed_str());
        reg.names.push(display);
        reg.specs.push(None);
        reg.index.insert(norm, tag);
        Ok(MachineId::Custom(CustomTag(tag)))
    }

    /// Whether this is a calibrated custom machine (not a built-in preset).
    pub(crate) fn is_custom(self) -> bool {
        matches!(self, MachineId::Custom(_))
    }

    /// Stable small integer for seed derivation. Presets keep the values of
    /// the old unit-only discriminant (`machine as u64`), so benchmark seeds
    /// are unchanged; custom machines follow after the presets.
    pub fn seed_tag(self) -> u64 {
        match self {
            MachineId::SimCluster => 0,
            MachineId::Hydra => 1,
            MachineId::Galileo100 => 2,
            MachineId::Discoverer => 3,
            MachineId::Custom(tag) => 4 + tag.0 as u64,
        }
    }

    /// Human-readable name as used in the paper. Custom machines render as
    /// `custom:<name>`, which parses back via [`std::str::FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            MachineId::SimCluster => "SimCluster",
            MachineId::Hydra => "Hydra",
            MachineId::Galileo100 => "Galileo100",
            MachineId::Discoverer => "Discoverer",
            MachineId::Custom(tag) => custom_registry().read().unwrap().names[tag.0 as usize],
        }
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MachineId {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(bare) = s.strip_prefix("custom:").or_else(|| s.strip_prefix("Custom:")) {
            return MachineId::custom(bare);
        }
        match s.to_ascii_lowercase().as_str() {
            "simcluster" | "sim" => Ok(MachineId::SimCluster),
            "hydra" => Ok(MachineId::Hydra),
            "galileo100" | "galileo" | "g100" => Ok(MachineId::Galileo100),
            "discoverer" | "disco" => Ok(MachineId::Discoverer),
            other => Err(format!(
                "unknown machine '{other}' (expected simcluster|hydra|galileo100|discoverer|custom:<name>)"
            )),
        }
    }
}

// Manual serde: unit presets serialize exactly as the old derive did (the
// variant identifier as a string), so existing snapshots and wire frames are
// unchanged; custom machines serialize as "custom:<name>" strings, which old
// formats simply never contained.
impl Serialize for MachineId {
    fn to_content(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for MachineId {
    fn from_content(c: &Content) -> Result<Self, SerdeError> {
        let s = c
            .as_str()
            .ok_or_else(|| SerdeError::custom(format!("expected machine name string, found {}", c.kind())))?;
        s.parse().map_err(SerdeError::custom)
    }
}

/// Machine parameters without a rank layout: everything [`Platform::preset`]
/// knows about a machine except `machine` and `ranks`. This is the unit that
/// `pap-calibrate` fits from a probe and that the custom-machine registry
/// stores; `Platform::from_spec` instantiates it for a rank count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Number of compute nodes available at baseline.
    pub nodes: usize,
    /// Cores (rank slots) per node.
    pub cores_per_node: usize,
    /// Shared-memory (intra-node) link parameters.
    pub intra: LinkParams,
    /// Network (inter-node) link parameters.
    pub inter: LinkParams,
    /// Messages strictly larger than this use the rendezvous protocol.
    pub eager_threshold: u64,
    /// Per-message sender CPU overhead `o_s` (seconds).
    pub send_overhead: SimTime,
    /// Per-message receiver CPU overhead `o_r` (seconds).
    pub recv_overhead: SimTime,
    /// Local reduction cost per byte (seconds/byte).
    pub reduce_cost_per_byte: f64,
    /// Model per-node NIC egress/ingress serialization (contention).
    pub nic_serialization: bool,
    /// Default noise model of this machine.
    pub default_noise: NoiseModel,
}

fn builtin_spec(machine: MachineId) -> Option<PlatformSpec> {
    let spec = match machine {
        MachineId::SimCluster => PlatformSpec {
            nodes: 32,
            cores_per_node: 32,
            intra: LinkParams { latency: 1e-6, bandwidth: 1.25e9 },
            inter: LinkParams { latency: 2e-6, bandwidth: 1.25e9 },
            eager_threshold: 16 * 1024,
            send_overhead: 0.5e-6,
            recv_overhead: 0.5e-6,
            reduce_cost_per_byte: 5e-11,
            nic_serialization: true,
            default_noise: NoiseModel::None,
        },
        MachineId::Hydra => PlatformSpec {
            nodes: 36,
            cores_per_node: 32,
            intra: LinkParams { latency: 0.3e-6, bandwidth: 8.0e9 },
            inter: LinkParams { latency: 1.1e-6, bandwidth: 12.5e9 },
            eager_threshold: 16 * 1024,
            send_overhead: 0.2e-6,
            recv_overhead: 0.2e-6,
            reduce_cost_per_byte: 4e-11,
            nic_serialization: true,
            default_noise: NoiseModel::gaussian(0.02),
        },
        MachineId::Galileo100 => PlatformSpec {
            nodes: 554,
            cores_per_node: 48,
            intra: LinkParams { latency: 0.35e-6, bandwidth: 9.0e9 },
            inter: LinkParams { latency: 1.0e-6, bandwidth: 12.5e9 },
            eager_threshold: 64 * 1024,
            send_overhead: 0.25e-6,
            recv_overhead: 0.25e-6,
            reduce_cost_per_byte: 4.5e-11,
            nic_serialization: true,
            default_noise: NoiseModel::heavy_tail(0.03, 4.0, 1.5e-3),
        },
        MachineId::Discoverer => PlatformSpec {
            nodes: 1128,
            cores_per_node: 128,
            intra: LinkParams { latency: 0.4e-6, bandwidth: 10.0e9 },
            inter: LinkParams { latency: 1.3e-6, bandwidth: 25.0e9 },
            eager_threshold: 32 * 1024,
            send_overhead: 0.3e-6,
            recv_overhead: 0.3e-6,
            reduce_cost_per_byte: 5e-11,
            nic_serialization: true,
            default_noise: NoiseModel::heavy_tail(0.025, 6.0, 2.0e-3),
        },
        MachineId::Custom(_) => return None,
    };
    Some(spec)
}

/// A concrete platform: machine parameters plus the number of MPI ranks laid
/// out on it (block mapping: rank `r` runs on node `r / cores_per_node`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// Which preset this platform was built from.
    pub machine: MachineId,
    /// Number of compute nodes available.
    pub nodes: usize,
    /// Cores (rank slots) per node.
    pub cores_per_node: usize,
    /// Number of MPI ranks placed on the machine.
    pub ranks: usize,
    /// Shared-memory (intra-node) link parameters.
    pub intra: LinkParams,
    /// Network (inter-node) link parameters.
    pub inter: LinkParams,
    /// Messages strictly larger than this use the rendezvous protocol.
    pub eager_threshold: u64,
    /// Per-message sender CPU overhead `o_s` (seconds).
    pub send_overhead: SimTime,
    /// Per-message receiver CPU overhead `o_r` (seconds).
    pub recv_overhead: SimTime,
    /// Local reduction cost per byte (seconds/byte).
    pub reduce_cost_per_byte: f64,
    /// Model per-node NIC egress/ingress serialization (contention). The
    /// simulation study and all experiments keep this on; an ablation bench
    /// turns it off.
    pub nic_serialization: bool,
    /// Default noise model of this machine (used by the micro-benchmark
    /// layer; the engine itself takes noise via `SimConfig`).
    pub default_noise: NoiseModel,
}

impl Platform {
    /// Build a platform preset with `ranks` MPI ranks.
    ///
    /// Rank counts beyond the preset's validated baseline capacity scale
    /// the machine out with identical additional nodes (same per-node core
    /// count and link parameters) — the synthetic growth used by the
    /// 10K–100K-rank scale benchmarks and `papctl --ranks`.
    ///
    /// # Panics
    /// Panics if `ranks` is zero, or if `machine` is a custom machine with no
    /// registered spec — service paths should use [`Platform::try_preset`].
    pub fn preset(machine: MachineId, ranks: usize) -> Self {
        Self::try_preset(machine, ranks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Platform::preset`]: custom machines resolve through
    /// the registry and report a missing calibration instead of panicking.
    pub fn try_preset(machine: MachineId, ranks: usize) -> Result<Self, String> {
        if ranks == 0 {
            return Err("platform needs at least one rank".into());
        }
        let spec = match builtin_spec(machine) {
            Some(spec) => spec,
            None => custom_platform_spec(machine).ok_or_else(|| {
                format!("machine '{}' has no registered calibration (run `papctl calibrate` or send a Calibrate frame first)", machine.name())
            })?,
        };
        Ok(Self::from_spec(machine, &spec, ranks))
    }

    /// Instantiate a [`PlatformSpec`] for `ranks` ranks, applying the same
    /// scale-out rule as [`Platform::preset`].
    ///
    /// # Panics
    /// Panics if `ranks` is zero.
    pub(crate) fn from_spec(machine: MachineId, spec: &PlatformSpec, ranks: usize) -> Self {
        assert!(ranks > 0, "platform needs at least one rank");
        let mut nodes = spec.nodes;
        if ranks > nodes * spec.cores_per_node {
            nodes = ranks.div_ceil(spec.cores_per_node);
        }
        Platform {
            machine,
            nodes,
            cores_per_node: spec.cores_per_node,
            ranks,
            intra: spec.intra,
            inter: spec.inter,
            eager_threshold: spec.eager_threshold,
            send_overhead: spec.send_overhead,
            recv_overhead: spec.recv_overhead,
            reduce_cost_per_byte: spec.reduce_cost_per_byte,
            nic_serialization: spec.nic_serialization,
            default_noise: spec.default_noise,
        }
    }

    /// The noise-free simulation platform of §III-A with `ranks` ranks.
    pub fn simcluster(ranks: usize) -> Self {
        Self::preset(MachineId::SimCluster, ranks)
    }

    /// Hydra analogue with `ranks` ranks.
    pub fn hydra(ranks: usize) -> Self {
        Self::preset(MachineId::Hydra, ranks)
    }

    /// Galileo100 analogue with `ranks` ranks.
    pub fn galileo100(ranks: usize) -> Self {
        Self::preset(MachineId::Galileo100, ranks)
    }

    /// Node hosting `rank` (block mapping).
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// Whether two ranks share a node.
    #[inline]
    pub(crate) fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Link parameters governing a message from `a` to `b`.
    #[inline]
    pub(crate) fn link(&self, a: usize, b: usize) -> &LinkParams {
        if self.same_node(a, b) {
            &self.intra
        } else {
            &self.inter
        }
    }

    /// Number of nodes actually occupied by the rank layout.
    pub fn occupied_nodes(&self) -> usize {
        self.ranks.div_ceil(self.cores_per_node)
    }

    /// Whether a message of `bytes` uses the eager protocol.
    #[inline]
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_threshold
    }

    /// Uncontended point-to-point time estimate (`o_s + L + bytes/bw`),
    /// useful for back-of-envelope model checks in tests.
    pub fn p2p_estimate(&self, from: usize, to: usize, bytes: u64) -> SimTime {
        self.send_overhead + self.link(from, to).transfer_time(bytes) + self.recv_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping_places_ranks() {
        let p = Platform::simcluster(64);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(31), 0);
        assert_eq!(p.node_of(32), 1);
        assert!(p.same_node(0, 31));
        assert!(!p.same_node(31, 32));
        assert_eq!(p.occupied_nodes(), 2);
    }

    #[test]
    fn link_selection_follows_hierarchy() {
        let p = Platform::simcluster(64);
        assert_eq!(p.link(0, 1).latency, p.intra.latency);
        assert_eq!(p.link(0, 32).latency, p.inter.latency);
    }

    #[test]
    fn oversubscribed_rank_counts_scale_the_machine_out() {
        let p = Platform::simcluster(32 * 32 + 1);
        assert_eq!(p.nodes, 33, "one extra node for the overflow rank");
        assert_eq!(p.occupied_nodes(), 33);
        let big = Platform::simcluster(102_400);
        assert_eq!(big.nodes, 3200);
        // Baseline capacity keeps the validated topology untouched.
        assert_eq!(Platform::simcluster(1024).nodes, 32);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = Platform::simcluster(0);
    }

    #[test]
    fn presets_have_distinct_regimes() {
        let h = Platform::hydra(4);
        let g = Platform::galileo100(4);
        let d = Platform::preset(MachineId::Discoverer, 4);
        // The FT message size (32768 B) must fall in different protocol
        // regimes on different machines — one lever behind Fig. 7/8.
        assert!(!h.is_eager(32_768));
        assert!(g.is_eager(32_768));
        assert!(d.is_eager(32_768));
        assert!(!d.is_eager(32_769));
        assert!(d.inter.bandwidth > h.inter.bandwidth);
    }

    #[test]
    fn transfer_time_is_latency_plus_bandwidth_term() {
        let l = LinkParams { latency: 1e-6, bandwidth: 1e9 };
        let t = l.transfer_time(1000);
        assert!((t - (1e-6 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn machine_id_parses_and_displays() {
        use std::str::FromStr;
        for m in MachineId::ALL {
            let round = MachineId::from_str(&m.name().to_lowercase()).unwrap();
            assert_eq!(round, m);
        }
        assert!(MachineId::from_str("nope").is_err());
    }

    #[test]
    fn serde_round_trip() {
        let p = Platform::hydra(8);
        let s = serde_json::to_string(&p).unwrap();
        let back: Platform = serde_json::from_str(&s).unwrap();
        assert_eq!(back.machine, p.machine);
        assert_eq!(back.ranks, p.ranks);
        assert_eq!(back.eager_threshold, p.eager_threshold);
    }

    #[test]
    fn machine_id_wire_form_is_the_preset_name_string() {
        // The old derived serde encoded unit variants as their identifier
        // string; the manual impl must keep that byte-identical so existing
        // snapshots load.
        for m in MachineId::ALL {
            let s = serde_json::to_string(&m).unwrap();
            assert_eq!(s, format!("\"{}\"", m.name()));
        }
        let back: MachineId = serde_json::from_str("\"Galileo100\"").unwrap();
        assert_eq!(back, MachineId::Galileo100);
    }

    #[test]
    fn custom_machine_interns_and_round_trips() {
        use std::str::FromStr;
        let a = MachineId::custom("SiteA").unwrap();
        let b = MachineId::custom("sitea").unwrap();
        assert_eq!(a, b, "names are case-normalized before interning");
        assert_eq!(a.name(), "custom:sitea");
        assert!(a.is_custom());
        assert_eq!(MachineId::from_str("custom:sitea").unwrap(), a);
        // Serde round-trip as a plain string.
        let s = serde_json::to_string(&a).unwrap();
        assert_eq!(s, "\"custom:sitea\"");
        let back: MachineId = serde_json::from_str(&s).unwrap();
        assert_eq!(back, a);
        // Distinct names get distinct tags.
        let c = MachineId::custom("siteb").unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn custom_names_are_validated() {
        assert!(MachineId::custom("").is_err());
        assert!(MachineId::custom("has space").is_err());
        assert!(MachineId::custom("hydra").is_err(), "preset names are reserved");
        assert!(MachineId::custom(&"x".repeat(CUSTOM_NAME_MAX + 1)).is_err());
        assert!(MachineId::custom("ok-name_1.2").is_ok());
    }

    #[test]
    fn unregistered_custom_machine_fails_try_preset() {
        let m = MachineId::custom("never-registered").unwrap();
        let err = Platform::try_preset(m, 8).unwrap_err();
        assert!(err.contains("no registered calibration"), "{err}");
    }

    #[test]
    fn registered_custom_machine_builds_platforms() {
        let spec = PlatformSpec { nodes: 4, cores_per_node: 8, ..builtin_spec(MachineId::Hydra).unwrap() };
        let m = register_custom_platform("reg-test", spec.clone()).unwrap();
        let p = Platform::try_preset(m, 16).unwrap();
        assert_eq!(p.machine, m);
        assert_eq!(p.cores_per_node, 8);
        assert_eq!(p.nodes, 4);
        assert_eq!(p.intra, spec.intra);
        // Scale-out rule applies to custom machines too.
        let big = Platform::preset(m, 1000);
        assert_eq!(big.nodes, 125);
        // Re-registration replaces the spec under the same tag.
        let spec2 = PlatformSpec { eager_threshold: 999, ..spec };
        let m2 = register_custom_platform("reg-test", spec2).unwrap();
        assert_eq!(m, m2);
        assert_eq!(Platform::preset(m, 2).eager_threshold, 999);
    }

    #[test]
    fn platform_spec_serde_round_trips() {
        // PlatformSpec is the calibration artifact format.
        let spec = builtin_spec(MachineId::Discoverer).unwrap();
        let s = serde_json::to_string(&spec).unwrap();
        let back: PlatformSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(back, spec);
    }
}
