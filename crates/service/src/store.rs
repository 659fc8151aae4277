//! The tiered evidence store behind `papd`.
//!
//! * **L1** — an LRU of fully resolved `(cell, policy) → algorithm`
//!   answers. Entries carry the generation of the evidence cell they were
//!   derived from and are discarded when a background refinement bumps it.
//! * **L2** — precomputed `(machine, collective, ranks, bytes)` evidence
//!   cells (full [`BenchMatrix`]es), seeded from a startup tuning sweep or a
//!   warm-restart snapshot. Misses on exact message size fall back to the
//!   nearest cell in log-space, mirroring [`pap_core::TuningTable::lookup`].
//! * **L3** — on-demand refinement: a cold cell is computed with the cheap
//!   analytical backend ([`TierStore::compute_miss`], which `papd` runs on
//!   its compute pool; [`TierStore::lookup`] is the cache-only half) and, when
//!   enabled, a background worker re-measures it with the event-driven
//!   simulator and *upgrades* the cell. Upgrades bump the cell generation,
//!   which invalidates derived L1 entries; a refinement that observes a
//!   generation change while it ran is dropped, never applied stale.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, RwLock};

use pap_arrival::{classify_delays, Shape};
use pap_calibrate::fit_probe;
use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use pap_core::{
    select, select_with_faults, tune_machine, BenchMatrix, FaultMatrix, SelectionPolicy, TunePlan,
    TuneRecord,
};
use pap_microbench::{
    fault_sweep, no_delay_runtime, standard_grid, sweep, Backend, BenchConfig, SkewPolicy,
};
use pap_sim::{register_custom_platform, MachineId, Platform};

use crate::cache::Lru;
use crate::proto::{CalibrateAnswer, CalibrateRequest, QueryAnswer, QueryRequest, ReplicaCell, Tier};
use crate::snapshot::Snapshot;
use crate::stats::Stats;

/// Identity of one L2 evidence cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Canonical machine name.
    pub machine: String,
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Rank count.
    pub ranks: usize,
    /// Message size (bytes).
    pub bytes: u64,
}

/// One L2 evidence cell.
#[derive(Debug, Clone)]
pub struct CellEvidence {
    /// The benchmark matrix (algorithms × arrival patterns).
    pub matrix: BenchMatrix,
    /// The status-quo (no-delay-fastest) pick, kept for reporting.
    pub status_quo: u8,
    /// Degraded-mode evidence (algorithms × fault scenarios), measured
    /// lazily the first time a fault-robust query hits the cell. Always
    /// sim-backed (the analytical model has no fault model).
    pub faults: Option<FaultMatrix>,
    /// Backend that produced the matrix (`"model"` or `"sim"`).
    pub backend: String,
    /// Bumped on every refinement upgrade; L1 entries derived from an older
    /// generation are stale.
    pub generation: u64,
}

/// L1 key: the evidence cell plus the policy applied to it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct L1Key {
    cell: CellKey,
    policy: String,
}

/// L1 value: a resolved answer and the evidence it came from.
#[derive(Debug, Clone)]
struct L1Entry {
    alg: u8,
    exact: bool,
    evidence: CellKey,
    backend: String,
    generation: u64,
}

/// How `papd` selects when a query carries no arrival samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefaultPolicy {
    /// The paper's robust-average policy (the daemon's default).
    Robust,
    /// The status quo: fastest under `no_delay`.
    NoDelayFastest,
    /// Degraded-mode routing: prefer algorithms whose worst-case
    /// degradation across the standard fault grid stays within the bound
    /// (fault evidence is measured lazily, sim-backed, per cell).
    FaultRobust {
        /// Worst-case degradation bound (`1.0` = at most 2× slower under
        /// any fault scenario).
        max_degradation: f64,
    },
}

impl std::str::FromStr for DefaultPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(bound) = s.strip_prefix("fault_robust:") {
            let max_degradation: f64 = bound
                .parse()
                .map_err(|_| format!("bad fault_robust bound '{bound}' (want a number)"))?;
            if !max_degradation.is_finite() || max_degradation < 0.0 {
                return Err(format!("fault_robust bound must be finite and >= 0, got {bound}"));
            }
            return Ok(DefaultPolicy::FaultRobust { max_degradation });
        }
        match s.to_ascii_lowercase().as_str() {
            "robust" => Ok(DefaultPolicy::Robust),
            "no_delay" | "no_delay_fastest" | "status_quo" => Ok(DefaultPolicy::NoDelayFastest),
            "fault_robust" => Ok(DefaultPolicy::FaultRobust { max_degradation: 1.0 }),
            other => Err(format!(
                "unknown policy '{other}' (expected robust|no_delay_fastest|fault_robust[:BOUND])"
            )),
        }
    }
}

/// The tiered store. Shared (via `Arc`) between connection handlers and
/// background refinement workers.
pub struct TierStore {
    l2: RwLock<HashMap<CellKey, CellEvidence>>,
    l1: Mutex<Lru<L1Key, L1Entry>>,
    refining: Mutex<HashSet<CellKey>>,
    stats: Arc<Stats>,
    default_policy: DefaultPolicy,
    /// Backend for cold-cell computation.
    compute_backend: Backend,
    /// Whether background sim refinement is enabled.
    refine_enabled: bool,
    shapes: Vec<Shape>,
    skew: SkewPolicy,
}

impl TierStore {
    /// Create an empty store.
    pub fn new(
        stats: Arc<Stats>,
        l1_capacity: usize,
        default_policy: DefaultPolicy,
        compute_backend: Backend,
        refine_enabled: bool,
    ) -> Self {
        TierStore {
            l2: RwLock::new(HashMap::new()),
            l1: Mutex::new(Lru::new(l1_capacity)),
            refining: Mutex::new(HashSet::new()),
            stats,
            default_policy,
            compute_backend,
            refine_enabled,
            shapes: Shape::SUITE.to_vec(),
            skew: SkewPolicy::FactorOfAvg(1.0),
        }
    }

    /// The stats block this store reports into.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Seed L2 from a tuning run's records.
    pub fn ingest_records(&self, machine: &str, records: &[TuneRecord], backend: &str) {
        let mut l2 = self.l2.write().expect("l2 lock");
        for rec in records {
            let key = CellKey {
                machine: machine.to_string(),
                kind: rec.entry.kind,
                ranks: rec.entry.ranks,
                bytes: rec.entry.bytes,
            };
            l2.insert(
                key,
                CellEvidence {
                    matrix: rec.matrix.clone(),
                    status_quo: rec.status_quo,
                    faults: None,
                    backend: backend.to_string(),
                    generation: 0,
                },
            );
        }
        self.stats.l2_cells.set(l2.len() as i64);
    }

    /// Seed L2 from a warm-restart snapshot. Cells carrying fault evidence
    /// (`papctl tune --faults`) seed it too, so a `--policy fault_robust`
    /// daemon answers straight from L2 with no lazy fault-grid re-measure.
    pub fn ingest_snapshot(&self, snap: &Snapshot) {
        let mut l2 = self.l2.write().expect("l2 lock");
        for cell in &snap.cells {
            let key = CellKey {
                machine: snap.machine.clone(),
                kind: cell.entry.kind,
                ranks: cell.entry.ranks,
                bytes: cell.entry.bytes,
            };
            l2.insert(
                key,
                CellEvidence {
                    matrix: cell.matrix.clone(),
                    status_quo: cell.status_quo,
                    faults: cell.faults.clone(),
                    backend: snap.backend.clone(),
                    generation: 0,
                },
            );
        }
        self.stats.l2_cells.set(l2.len() as i64);
    }

    /// Number of L2 cells currently held.
    pub fn l2_len(&self) -> usize {
        self.l2.read().expect("l2 lock").len()
    }

    /// Export one page of L2 cells for warm replication, in a stable sort
    /// order (machine, collective, ranks, bytes) so a client paging
    /// `offset = 0, n, 2n, …` over an unchanging store sees every cell
    /// exactly once. Returns `(total, page)`.
    pub fn export_cells(&self, offset: usize, limit: usize) -> (usize, Vec<ReplicaCell>) {
        let l2 = self.l2.read().expect("l2 lock");
        let mut keys: Vec<&CellKey> = l2.keys().collect();
        keys.sort_by(|a, b| {
            (&a.machine, a.kind.to_string(), a.ranks, a.bytes)
                .cmp(&(&b.machine, b.kind.to_string(), b.ranks, b.bytes))
        });
        let page = keys
            .into_iter()
            .skip(offset)
            .take(limit)
            .map(|k| {
                let c = &l2[k];
                ReplicaCell {
                    machine: k.machine.clone(),
                    collective: k.kind,
                    ranks: k.ranks,
                    bytes: k.bytes,
                    status_quo: c.status_quo,
                    matrix: c.matrix.clone(),
                    faults: c.faults.clone(),
                    backend: c.backend.clone(),
                    generation: c.generation,
                }
            })
            .collect();
        (l2.len(), page)
    }

    /// Ingest a page of replicated cells (the receiving side of
    /// [`TierStore::export_cells`]). Validation mirrors snapshot loading:
    /// the status-quo pick must exist in its matrix, and fault evidence
    /// must match the cell and the current fault-grid version — serving
    /// from a donor with a different sweep definition would silently mix
    /// incomparable evidence. Returns the number of cells ingested.
    pub fn ingest_replica(&self, cells: &[ReplicaCell]) -> Result<usize, String> {
        for (i, cell) in cells.iter().enumerate() {
            if !cell.matrix.algs.contains(&cell.status_quo) {
                return Err(format!(
                    "replica cell {i}: status-quo alg {} absent from its evidence matrix",
                    cell.status_quo
                ));
            }
            if let Some(fm) = &cell.faults {
                if fm.grid_version != pap_microbench::FAULT_GRID_VERSION {
                    return Err(format!(
                        "replica cell {i}: fault grid v{} does not match current v{}",
                        fm.grid_version,
                        pap_microbench::FAULT_GRID_VERSION
                    ));
                }
                if fm.kind != cell.collective || fm.bytes != cell.bytes {
                    return Err(format!(
                        "replica cell {i}: fault evidence is for {} @ {} B, cell is {} @ {} B",
                        fm.kind, fm.bytes, cell.collective, cell.bytes
                    ));
                }
            }
        }
        let mut l2 = self.l2.write().expect("l2 lock");
        for cell in cells {
            let key = CellKey {
                machine: cell.machine.clone(),
                kind: cell.collective,
                ranks: cell.ranks,
                bytes: cell.bytes,
            };
            l2.insert(
                key,
                CellEvidence {
                    matrix: cell.matrix.clone(),
                    status_quo: cell.status_quo,
                    faults: cell.faults.clone(),
                    backend: cell.backend.clone(),
                    generation: cell.generation,
                },
            );
        }
        self.stats.l2_cells.set(l2.len() as i64);
        Ok(cells.len())
    }

    /// Onboard an unseen machine from a measured probe: fit the platform
    /// parameters inline, register the machine as `custom:<name>`, run a
    /// tuning sweep over the standard grid with the cheap compute backend,
    /// and publish the result as L2 evidence so the very next query is an
    /// L2 hit.
    ///
    /// Returns the answer plus the refinement tickets for the published
    /// cells (the caller owns the worker pool — same contract as
    /// [`TierStore::resolve`]). A probe the guideline gate rejects is a
    /// client error and registers nothing.
    pub fn calibrate(
        &self,
        req: &CalibrateRequest,
    ) -> Result<(CalibrateAnswer, Vec<CellKey>), String> {
        // Validate the name before paying for the fit.
        MachineId::custom(&req.name)?;
        if req.ranks < 2 {
            return Err(format!("need at least 2 ranks to pre-tune, got {}", req.ranks));
        }
        let fit = fit_probe(&req.probe).map_err(|e| {
            self.stats.calibration_rejected();
            format!("calibration rejected: {e}")
        })?;
        let machine = register_custom_platform(&req.name, fit.spec.clone())?;
        let platform = Platform::try_preset(machine, req.ranks)?;
        let bench = BenchConfig::simulation().with_backend(self.compute_backend);
        let (_, records) = tune_machine(&platform, &TunePlan::default(), &bench)?;
        self.ingest_records(machine.name(), &records, &self.compute_backend.to_string());
        self.stats.calibration_accepted(fit.median_rel_residual);

        let mut tickets = Vec::new();
        if self.refine_enabled && self.compute_backend != Backend::Sim {
            let mut refining = self.refining.lock().expect("refining lock");
            for rec in &records {
                let key = CellKey {
                    machine: machine.name().to_string(),
                    kind: rec.entry.kind,
                    ranks: rec.entry.ranks,
                    bytes: rec.entry.bytes,
                };
                if refining.insert(key.clone()) {
                    self.stats.refine_scheduled();
                    tickets.push(key);
                }
            }
        }
        let answer = CalibrateAnswer {
            machine: machine.name().to_string(),
            fit,
            l2_cells: records.len(),
            refine_scheduled: tickets.len(),
        };
        Ok((answer, tickets))
    }

    /// Resolve one query through the tiers: [`TierStore::lookup`], then
    /// [`TierStore::compute_miss`] when the caches cannot answer.
    ///
    /// Returns the answer plus, when a background sim refinement should be
    /// scheduled for the evidence cell, that cell's key (the caller owns the
    /// worker pool). Errors are client errors (`BadRequest`).
    pub fn resolve(&self, q: &QueryRequest) -> Result<(QueryAnswer, Option<CellKey>), String> {
        match self.lookup(q)? {
            Some(hit) => Ok(hit),
            None => self.compute_miss(q),
        }
    }

    /// The cheap tiers: L1, then L2 (exact, then nearest size). `Ok(None)`
    /// means the answer needs measurement — a cold cell, or fault evidence
    /// a fault-robust query must add to an L2 cell. Counts a tier only on a
    /// hit.
    pub fn lookup(&self, q: &QueryRequest) -> Result<Option<(QueryAnswer, Option<CellKey>)>, String> {
        self.resolve_tiers(q, false)
    }

    /// The measuring half of [`TierStore::resolve`]: re-check the caches (a
    /// racing query may have published the cell meanwhile), then compute
    /// what they lack.
    pub fn compute_miss(&self, q: &QueryRequest) -> Result<(QueryAnswer, Option<CellKey>), String> {
        Ok(self.resolve_tiers(q, true)?.expect("a measuring resolution always answers"))
    }

    fn resolve_tiers(
        &self,
        q: &QueryRequest,
        measure: bool,
    ) -> Result<Option<(QueryAnswer, Option<CellKey>)>, String> {
        let machine_id: MachineId = q.machine.parse()?;
        let machine = machine_id.name().to_string();
        if q.ranks < 2 {
            return Err(format!("need at least 2 ranks, got {}", q.ranks));
        }
        let capacity = {
            let probe = Platform::try_preset(machine_id, 1)?;
            probe.nodes * probe.cores_per_node
        };
        if q.ranks > capacity {
            return Err(format!("{} ranks exceed capacity {capacity} of {machine}", q.ranks));
        }

        // Classify the arrival samples (if any) into a pattern and policy.
        let (policy, pattern, similarity) = match &q.arrivals {
            None => {
                let policy = match self.default_policy {
                    DefaultPolicy::Robust => SelectionPolicy::robust(),
                    DefaultPolicy::NoDelayFastest => SelectionPolicy::NoDelayFastest,
                    DefaultPolicy::FaultRobust { max_degradation } => {
                        SelectionPolicy::FaultRobust { max_degradation }
                    }
                };
                (policy, Shape::NoDelay.name().to_string(), 1.0)
            }
            Some(samples) => {
                if samples.len() != q.ranks {
                    return Err(format!(
                        "arrivals has {} samples but query names {} ranks",
                        samples.len(),
                        q.ranks
                    ));
                }
                if samples.iter().any(|s| !s.is_finite()) {
                    return Err("arrivals contain non-finite values".to_string());
                }
                let (shape, sim) = classify_delays(samples);
                let name = shape.name().to_string();
                let policy = if shape == Shape::NoDelay {
                    // Synchronized arrivals are exactly the status quo's
                    // assumption; answer with the no-delay winner.
                    SelectionPolicy::NoDelayFastest
                } else {
                    SelectionPolicy::BestUnderPattern(name.clone())
                };
                (policy, name, sim)
            }
        };
        let policy_label = policy_label(&policy);
        let key = CellKey { machine: machine.clone(), kind: q.collective, ranks: q.ranks, bytes: q.bytes };

        let answer = |alg: u8, tier: Tier, exact: bool, evidence: &CellKey, backend: &str, generation: u64, refine: bool| QueryAnswer {
            machine: machine.clone(),
            collective: q.collective,
            ranks: q.ranks,
            bytes: q.bytes,
            alg,
            policy: policy_label.clone(),
            pattern: pattern.clone(),
            similarity,
            tier,
            exact,
            evidence_bytes: evidence.bytes,
            backend: backend.to_string(),
            generation,
            refine_scheduled: refine,
        };

        // L1: a resolved answer for this (cell, policy), still-current
        // generation.
        let l1_key = L1Key { cell: key.clone(), policy: policy_label.clone() };
        if let Some(hit) = self.l1_lookup(&l1_key) {
            self.stats.l1_hit();
            return Ok(Some((
                answer(hit.alg, Tier::L1, hit.exact, &hit.evidence, &hit.backend, hit.generation, false),
                None,
            )));
        }

        // L2: precomputed evidence, exact then nearest-size.
        if let Some((evidence_key, mut cell, exact)) = self.l2_lookup(&key) {
            let fault_robust = matches!(policy, SelectionPolicy::FaultRobust { .. });
            if fault_robust && cell.faults.is_none() && !measure {
                return Ok(None);
            }
            let alg = self.select_in_cell(machine_id, &evidence_key, &mut cell, &policy)?;
            if exact {
                self.stats.l2_exact_hit();
            } else {
                self.stats.l2_near_hit();
            }
            let refine = self.should_refine(&evidence_key, &cell);
            self.l1_insert(
                l1_key,
                L1Entry {
                    alg,
                    exact,
                    evidence: evidence_key.clone(),
                    backend: cell.backend.clone(),
                    generation: cell.generation,
                },
            );
            let tier = if exact { Tier::L2 } else { Tier::L2Near };
            return Ok(Some((
                answer(alg, tier, exact, &evidence_key, &cell.backend, cell.generation, refine),
                refine.then_some(evidence_key),
            )));
        }
        if !measure {
            return Ok(None);
        }

        // Miss: compute the cell with the cheap backend, publish it as L2
        // evidence, and (optionally) hand the caller a refinement ticket so
        // the simulator can upgrade it in the background.
        self.stats.tier_miss();
        let backend = self.compute_backend;
        let matrix = self.compute_matrix(machine_id, &key, backend)?;
        // Fault-robust routing needs degraded-mode evidence on top of the
        // pattern matrix; measure it up front so the published cell carries
        // both.
        let faults = if matches!(policy, SelectionPolicy::FaultRobust { .. }) {
            Some(self.compute_fault_matrix(machine_id, &key)?)
        } else {
            None
        };
        let alg = select_with_faults(&matrix, faults.as_ref(), &policy)?;
        let status_quo = select(&matrix, &SelectionPolicy::NoDelayFastest)?;
        let generation = 0;
        {
            let mut l2 = self.l2.write().expect("l2 lock");
            // A racing query may have published the cell meanwhile; keep the
            // existing one (same inputs → same matrix for the deterministic
            // backends, so either is correct).
            l2.entry(key.clone()).or_insert(CellEvidence {
                matrix,
                status_quo,
                faults,
                backend: backend.to_string(),
                generation,
            });
            self.stats.l2_cells.set(l2.len() as i64);
        }
        let refine = self.refine_enabled
            && backend != Backend::Sim
            && self.refining.lock().expect("refining lock").insert(key.clone());
        if refine {
            self.stats.refine_scheduled();
        }
        self.l1_insert(
            L1Key { cell: key.clone(), policy: policy_label.clone() },
            L1Entry {
                alg,
                exact: true,
                evidence: key.clone(),
                backend: backend.to_string(),
                generation,
            },
        );
        Ok(Some((
            answer(alg, Tier::Computed, true, &key, &backend.to_string(), generation, refine),
            refine.then_some(key),
        )))
    }

    /// Re-measure `key` with the simulator and upgrade the cell if it is
    /// still the generation the refinement started from. Called from a
    /// background worker; never panics on missing cells.
    pub fn refine(&self, key: &CellKey) {
        let started_from = match self.l2.read().expect("l2 lock").get(key) {
            Some(cell) => cell.generation,
            None => {
                self.refining.lock().expect("refining lock").remove(key);
                self.stats.refine_dropped();
                return;
            }
        };
        let machine_id: MachineId = match key.machine.parse() {
            Ok(id) => id,
            Err(_) => {
                self.refining.lock().expect("refining lock").remove(key);
                self.stats.refine_dropped();
                return;
            }
        };
        let result = self.compute_matrix(machine_id, key, Backend::Sim);
        let mut refining = self.refining.lock().expect("refining lock");
        refining.remove(key);
        drop(refining);
        match result {
            Ok(matrix) => {
                let status_quo = match select(&matrix, &SelectionPolicy::NoDelayFastest) {
                    Ok(a) => a,
                    Err(_) => {
                        self.stats.refine_dropped();
                        return;
                    }
                };
                let mut l2 = self.l2.write().expect("l2 lock");
                match l2.get_mut(key) {
                    // Only upgrade the generation the refinement observed:
                    // if someone else already upgraded the cell, this result
                    // is stale.
                    Some(cell) if cell.generation == started_from => {
                        cell.matrix = matrix;
                        cell.status_quo = status_quo;
                        cell.backend = Backend::Sim.to_string();
                        cell.generation += 1;
                        drop(l2);
                        self.invalidate_l1(key);
                        self.stats.refine_applied();
                    }
                    _ => self.stats.refine_dropped(),
                }
            }
            Err(_) => self.stats.refine_dropped(),
        }
    }

    /// Abandon a scheduled refinement (e.g. the worker pool rejected it).
    pub fn cancel_refine(&self, key: &CellKey) {
        self.refining.lock().expect("refining lock").remove(key);
        self.stats.refine_dropped();
    }

    /// Drop L1 entries derived from `key` (their generation is now stale).
    fn invalidate_l1(&self, key: &CellKey) {
        let mut l1 = self.l1.lock().expect("l1 lock");
        l1.retain(|_, entry| entry.evidence != *key);
        self.stats.l1_entries.set(l1.len() as i64);
    }

    fn l1_lookup(&self, key: &L1Key) -> Option<L1Entry> {
        let entry = self.l1.lock().expect("l1 lock").get(key).cloned()?;
        // Generation check against the live cell; stale entries miss (and
        // are overwritten by the fresh resolution that follows).
        let l2 = self.l2.read().expect("l2 lock");
        match l2.get(&entry.evidence) {
            Some(cell) if cell.generation == entry.generation => Some(entry),
            _ => None,
        }
    }

    fn l1_insert(&self, key: L1Key, entry: L1Entry) {
        let mut l1 = self.l1.lock().expect("l1 lock");
        l1.insert(key, entry);
        self.stats.l1_entries.set(l1.len() as i64);
    }

    /// Exact L2 lookup, then nearest message size in log-space among cells
    /// with the same machine, collective, and rank count.
    fn l2_lookup(&self, key: &CellKey) -> Option<(CellKey, CellEvidence, bool)> {
        let l2 = self.l2.read().expect("l2 lock");
        if let Some(cell) = l2.get(key) {
            return Some((key.clone(), cell.clone(), true));
        }
        let dist = |bytes: u64| ((bytes.max(1) as f64).ln() - (key.bytes.max(1) as f64).ln()).abs();
        l2.iter()
            .filter(|(k, _)| k.machine == key.machine && k.kind == key.kind && k.ranks == key.ranks)
            .min_by(|a, b| dist(a.0.bytes).partial_cmp(&dist(b.0.bytes)).expect("finite distances"))
            .map(|(k, cell)| (k.clone(), cell.clone(), false))
    }

    /// Whether a hit on this cell should schedule a sim refinement.
    fn should_refine(&self, key: &CellKey, cell: &CellEvidence) -> bool {
        if !self.refine_enabled || cell.backend == "sim" {
            return false;
        }
        let scheduled = self.refining.lock().expect("refining lock").insert(key.clone());
        if scheduled {
            self.stats.refine_scheduled();
        }
        scheduled
    }

    /// Fault-aware selection inside one evidence cell: the
    /// [`SelectionPolicy::FaultRobust`] policy needs degraded-mode
    /// evidence, which is measured lazily (sim-backed) the first time a
    /// fault-robust query hits the cell and published back into L2 so
    /// later queries reuse it. Fault evidence does not bump the cell
    /// generation — pattern-derived answers are untouched by it.
    fn select_in_cell(
        &self,
        machine_id: MachineId,
        key: &CellKey,
        cell: &mut CellEvidence,
        policy: &SelectionPolicy,
    ) -> Result<u8, String> {
        if matches!(policy, SelectionPolicy::FaultRobust { .. }) && cell.faults.is_none() {
            let fm = self.compute_fault_matrix(machine_id, key)?;
            let mut l2 = self.l2.write().expect("l2 lock");
            if let Some(live) = l2.get_mut(key) {
                if live.generation == cell.generation && live.faults.is_none() {
                    live.faults = Some(fm.clone());
                }
            }
            cell.faults = Some(fm);
        }
        select_with_faults(&cell.matrix, cell.faults.as_ref(), policy)
    }

    /// Measure the standard fault grid for one cell.
    fn compute_fault_matrix(
        &self,
        machine_id: MachineId,
        key: &CellKey,
    ) -> Result<FaultMatrix, String> {
        measure_fault_matrix(machine_id, key.kind, key.ranks, key.bytes)
    }

    /// Run the full algorithm × pattern sweep for one cell.
    fn compute_matrix(
        &self,
        machine_id: MachineId,
        key: &CellKey,
        backend: Backend,
    ) -> Result<BenchMatrix, String> {
        let platform = Platform::try_preset(machine_id, key.ranks)?;
        let algs = experiment_ids(key.kind);
        let cfg = BenchConfig::simulation().with_backend(backend);
        let sw = sweep(&platform, key.kind, &algs, &self.shapes, key.bytes, self.skew, &[], &cfg)
            .map_err(|e| format!("{} @ {} B: {e}", key.kind, key.bytes))?;
        Ok(BenchMatrix::from_sweep(&sw))
    }
}

/// Measure the standard fault grid for one `(machine, collective, ranks,
/// bytes)` cell. Always sim-backed: the analytical model has no fault
/// model. Shared by the store's lazy fault-evidence path and
/// `papctl tune --faults` (which persists the result into the snapshot).
pub fn measure_fault_matrix(
    machine_id: MachineId,
    kind: CollectiveKind,
    ranks: usize,
    bytes: u64,
) -> Result<FaultMatrix, String> {
    let platform = Platform::try_preset(machine_id, ranks)?;
    let algs = experiment_ids(kind);
    let cfg = BenchConfig::simulation();
    let t = no_delay_runtime(&platform, kind, algs[0], bytes, &cfg, 0)
        .map_err(|e| format!("fault grid {kind} @ {bytes} B: {e}"))?;
    let scenarios = standard_grid(ranks, t);
    let sw = fault_sweep(&platform, kind, &algs, bytes, &scenarios, &cfg)
        .map_err(|e| format!("fault grid {kind} @ {bytes} B: {e}"))?;
    Ok(FaultMatrix::from_fault_sweep(&sw))
}

/// Stable wire label of a selection policy.
pub fn policy_label(policy: &SelectionPolicy) -> String {
    match policy {
        SelectionPolicy::NoDelayFastest => "no_delay_fastest".to_string(),
        SelectionPolicy::RobustAverage { .. } => "robust".to_string(),
        SelectionPolicy::BestUnderPattern(p) => format!("best_under:{p}"),
        SelectionPolicy::FaultRobust { max_degradation } => {
            format!("fault_robust:{max_degradation}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pap_arrival::generate;
    use pap_core::{tune_machine, TunePlan};

    fn store(l1: usize, refine: bool) -> TierStore {
        TierStore::new(Arc::new(Stats::new()), l1, DefaultPolicy::Robust, Backend::Model, refine)
    }

    fn seeded_store(l1: usize, refine: bool, sizes: &[u64]) -> TierStore {
        let s = store(l1, refine);
        let platform = Platform::simcluster(8);
        let plan = TunePlan {
            kinds: vec![CollectiveKind::Reduce],
            sizes: sizes.to_vec(),
            ..TunePlan::default()
        };
        let cfg = BenchConfig::simulation().with_backend(Backend::Model);
        let (_, records) = tune_machine(&platform, &plan, &cfg).unwrap();
        s.ingest_records("SimCluster", &records, "model");
        s
    }

    fn query(bytes: u64, arrivals: Option<Vec<f64>>) -> QueryRequest {
        QueryRequest {
            machine: "simcluster".into(),
            collective: CollectiveKind::Reduce,
            bytes,
            ranks: 8,
            arrivals,
        }
    }

    #[test]
    fn tier_progression_l2_then_l1() {
        let s = seeded_store(32, false, &[1024]);
        let (a1, t1) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(a1.tier, Tier::L2);
        assert!(a1.exact);
        assert!(t1.is_none(), "refinement disabled");
        let (a2, _) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(a2.tier, Tier::L1);
        assert_eq!(a2.alg, a1.alg);
        assert_eq!(s.stats().report().tiers.l1_hits, 1);
        assert_eq!(s.stats().report().tiers.l2_exact, 1);
    }

    #[test]
    fn near_lookup_uses_log_distance() {
        let s = seeded_store(0, false, &[8, 32 * 1024]);
        let (a, _) = s.resolve(&query(16 * 1024, None)).unwrap();
        assert_eq!(a.tier, Tier::L2Near);
        assert!(!a.exact);
        assert_eq!(a.evidence_bytes, 32 * 1024);
    }

    #[test]
    fn cold_cell_is_computed_and_published() {
        let s = store(8, false);
        let (a, _) = s.resolve(&query(4096, None)).unwrap();
        assert_eq!(a.tier, Tier::Computed);
        assert_eq!(s.l2_len(), 1);
        // Second identical query is an L1 hit now.
        let (b, _) = s.resolve(&query(4096, None)).unwrap();
        assert_eq!(b.tier, Tier::L1);
        assert_eq!(b.alg, a.alg);
    }

    #[test]
    fn arrival_samples_select_per_pattern() {
        let s = seeded_store(32, false, &[1024]);
        // Skewed samples classify to a shape; policy becomes best_under.
        let proto = generate(Shape::LastDelayed, 8, 1e-3, 0);
        let (a, _) = s.resolve(&query(1024, Some(proto.delays.clone()))).unwrap();
        assert_eq!(a.pattern, "last_delayed");
        assert!(a.policy.starts_with("best_under:"));
        assert!(a.similarity > 0.99);
        // Flat samples mean "synchronized": status-quo winner.
        let (b, _) = s.resolve(&query(1024, Some(vec![0.0; 8]))).unwrap();
        assert_eq!(b.policy, "no_delay_fastest");
        assert_eq!(b.pattern, "no_delay");
    }

    #[test]
    fn refinement_upgrades_generation_and_invalidates_l1() {
        let s = seeded_store(32, true, &[1024]);
        let (a, ticket) = s.resolve(&query(1024, None)).unwrap();
        assert!(a.refine_scheduled);
        let key = ticket.expect("model-backed cell should schedule refinement");
        s.refine(&key);
        let report = s.stats().report();
        assert_eq!(report.tiers.refines_applied, 1);
        // The L1 entry from generation 0 is stale: next query re-selects
        // from the upgraded sim evidence at generation 1.
        let (b, t2) = s.resolve(&query(1024, None)).unwrap();
        assert_ne!(b.tier, Tier::L1);
        assert_eq!(b.generation, 1);
        assert_eq!(b.backend, "sim");
        assert!(t2.is_none(), "sim-backed cells do not re-refine");
    }

    #[test]
    fn duplicate_refinement_is_not_scheduled() {
        let s = seeded_store(0, true, &[1024]);
        let (_, t1) = s.resolve(&query(1024, None)).unwrap();
        assert!(t1.is_some());
        let (a2, t2) = s.resolve(&query(1024, None)).unwrap();
        assert!(t2.is_none(), "already in flight");
        assert!(!a2.refine_scheduled);
        assert_eq!(s.stats().report().tiers.refines_scheduled, 1);
    }

    fn fault_store(l1: usize) -> TierStore {
        TierStore::new(
            Arc::new(Stats::new()),
            l1,
            DefaultPolicy::FaultRobust { max_degradation: 1.0 },
            Backend::Model,
            false,
        )
    }

    #[test]
    fn default_policy_parses_fault_robust() {
        assert_eq!(
            "fault_robust".parse::<DefaultPolicy>().unwrap(),
            DefaultPolicy::FaultRobust { max_degradation: 1.0 }
        );
        assert_eq!(
            "fault_robust:0.5".parse::<DefaultPolicy>().unwrap(),
            DefaultPolicy::FaultRobust { max_degradation: 0.5 }
        );
        assert!("fault_robust:nope".parse::<DefaultPolicy>().is_err());
        assert!("fault_robust:-1".parse::<DefaultPolicy>().is_err());
    }

    #[test]
    fn fault_robust_routing_computes_cold_cells_with_fault_evidence() {
        let s = fault_store(32);
        let (a, _) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(a.tier, Tier::Computed);
        assert_eq!(a.policy, "fault_robust:1");
        // The published cell carries the fault grid: the next query resolves
        // from L1 without re-measuring.
        let (b, _) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(b.tier, Tier::L1);
        assert_eq!(b.alg, a.alg);
    }

    #[test]
    fn fault_robust_routing_adds_lazy_evidence_to_seeded_cells() {
        let s = fault_store(32);
        let platform = Platform::simcluster(8);
        let plan = TunePlan {
            kinds: vec![CollectiveKind::Reduce],
            sizes: vec![1024],
            ..TunePlan::default()
        };
        let cfg = BenchConfig::simulation().with_backend(Backend::Model);
        let (_, records) = tune_machine(&platform, &plan, &cfg).unwrap();
        s.ingest_records("SimCluster", &records, "model");
        // Seeded cells have no fault evidence; the first fault-robust query
        // measures it lazily and still answers from L2.
        let (a, _) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(a.tier, Tier::L2);
        assert!(a.policy.starts_with("fault_robust"));
        let (b, _) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(b.tier, Tier::L1, "fault evidence is cached on the cell");
        assert_eq!(b.alg, a.alg);
        // Queries carrying arrival samples keep their per-pattern policy:
        // the fault grid only backs pattern-less routing.
        let proto = generate(Shape::LastDelayed, 8, 1e-3, 0);
        let (c, _) = s.resolve(&query(1024, Some(proto.delays.clone()))).unwrap();
        assert!(c.policy.starts_with("best_under:"));
    }

    #[test]
    fn snapshot_fault_evidence_serves_without_remeasurement() {
        use crate::snapshot::Snapshot;
        use pap_microbench::FAULT_GRID_VERSION;

        let platform = Platform::simcluster(8);
        let plan = TunePlan {
            kinds: vec![CollectiveKind::Reduce],
            sizes: vec![1024],
            ..TunePlan::default()
        };
        let cfg = BenchConfig::simulation().with_backend(Backend::Model);
        let (_, records) = tune_machine(&platform, &plan, &cfg).unwrap();
        let mut snap = Snapshot::from_records("SimCluster", 8, "model", &records);
        // Doctored-but-valid fault evidence: a scenario set the fault-grid
        // measurement would never produce, picking alg 2. If the store
        // re-measured on query, both the answer and the stored evidence
        // would differ.
        snap.cells[0].faults = Some(FaultMatrix {
            kind: snap.cells[0].entry.kind,
            bytes: snap.cells[0].entry.bytes,
            algs: vec![1, 2],
            scenarios: vec!["clean".into(), "doctored".into()],
            values: vec![vec![Some(1.0), Some(1.5)], vec![None, Some(1.6)]],
            statically_decided: Vec::new(),
            grid_version: FAULT_GRID_VERSION,
        });
        let snap = Snapshot::from_json(&snap.to_json()).unwrap();

        let s = fault_store(32);
        s.ingest_snapshot(&snap);
        let (a, _) = s.resolve(&query(1024, None)).unwrap();
        assert_eq!(a.tier, Tier::L2);
        assert_eq!(a.alg, 2, "the answer must come from the snapshot's fault evidence");
        let key = CellKey {
            machine: "SimCluster".into(),
            kind: CollectiveKind::Reduce,
            ranks: 8,
            bytes: 1024,
        };
        let l2 = s.l2.read().unwrap();
        let fm = l2.get(&key).unwrap().faults.as_ref().expect("evidence survives ingest");
        assert_eq!(fm.scenarios, vec!["clean", "doctored"], "no fault re-measurement happened");
    }

    #[test]
    fn replica_pages_rebuild_an_identical_store() {
        let donor = seeded_store(0, false, &[8, 1024, 32 * 1024]);
        let (total, _) = donor.export_cells(0, 0);
        assert_eq!(total, donor.l2_len());

        // Drain page by page (page size 2 over 3 cells exercises a partial
        // last page) into a cold replica.
        let replica = store(0, false);
        let mut offset = 0;
        loop {
            let (total, page) = donor.export_cells(offset, 2);
            if page.is_empty() {
                assert!(offset >= total);
                break;
            }
            replica.ingest_replica(&page).unwrap();
            offset += page.len();
        }
        assert_eq!(replica.l2_len(), donor.l2_len());

        // The replica answers the same way the donor does, straight from L2.
        let (a, _) = donor.resolve(&query(1024, None)).unwrap();
        let (b, _) = replica.resolve(&query(1024, None)).unwrap();
        assert_eq!(b.tier, Tier::L2);
        assert_eq!((b.alg, b.generation, &b.backend), (a.alg, a.generation, &a.backend));

        // Export order is stable: two drains see the same pages.
        assert_eq!(donor.export_cells(0, 10).1, replica.export_cells(0, 10).1);
    }

    #[test]
    fn replica_validation_rejects_crossed_fault_evidence() {
        use pap_microbench::FAULT_GRID_VERSION;
        let donor = seeded_store(0, false, &[1024]);
        let (_, mut page) = donor.export_cells(0, 10);
        page[0].faults = Some(FaultMatrix {
            kind: page[0].collective,
            bytes: page[0].bytes + 1, // crossed: evidence for a different size
            algs: vec![1, 2],
            scenarios: vec!["clean".into()],
            values: vec![vec![Some(1.0), Some(1.5)]],
            statically_decided: Vec::new(),
            grid_version: FAULT_GRID_VERSION,
        });
        let replica = store(0, false);
        let err = replica.ingest_replica(&page).unwrap_err();
        assert!(err.contains("fault evidence"), "{err}");
        assert_eq!(replica.l2_len(), 0, "nothing ingested on validation failure");

        // Stale grid versions are rejected too.
        page[0].faults.as_mut().unwrap().bytes -= 1;
        page[0].faults.as_mut().unwrap().grid_version = FAULT_GRID_VERSION - 1;
        assert!(replica.ingest_replica(&page).unwrap_err().contains("fault grid"));

        // And a status-quo pick outside the matrix.
        page[0].faults = None;
        page[0].status_quo = 99;
        assert!(replica.ingest_replica(&page).unwrap_err().contains("status-quo"));
    }

    #[test]
    fn calibrate_onboards_a_custom_machine() {
        use pap_calibrate::{synthesize_probe, ProbeConfig};
        let s = store(32, true);
        let cfg = ProbeConfig { reps: 1, noise: false, clock_sync: false, ..Default::default() };
        let probe = synthesize_probe(MachineId::Hydra, "store-onboard", &cfg).unwrap();
        let req = CalibrateRequest { name: "store-onboard".into(), ranks: 8, probe };
        let (a, tickets) = s.calibrate(&req).unwrap();
        assert_eq!(a.machine, "custom:store-onboard");
        assert!(a.l2_cells > 0);
        assert_eq!(a.refine_scheduled, tickets.len());
        assert_eq!(s.l2_len(), a.l2_cells);
        assert!(a.fit.median_rel_residual < 0.01, "noise-free fit should be tight");
        // A cold store now answers for the fitted machine straight from L2.
        let q = QueryRequest { machine: "custom:store-onboard".into(), ..query(1024, None) };
        let (ans, _) = s.resolve(&q).unwrap();
        assert_eq!(ans.tier, Tier::L2);
        assert_eq!(ans.machine, "custom:store-onboard");
        // Draining one ticket upgrades its cell to sim evidence.
        s.refine(&tickets[0]);
        assert_eq!(s.stats().report().tiers.refines_applied, 1);
    }

    #[test]
    fn rejected_probe_registers_nothing() {
        use pap_calibrate::{synthesize_probe, ProbeConfig};
        let s = store(8, false);
        let cfg = ProbeConfig { reps: 1, noise: false, clock_sync: false, ..Default::default() };
        let mut probe = synthesize_probe(MachineId::Hydra, "store-reject", &cfg).unwrap();
        for obs in &mut probe.ladder {
            for t in &mut obs.reps {
                *t = 1e-3; // flat times: zero bandwidth signal
            }
        }
        let req = CalibrateRequest { name: "store-reject".into(), ranks: 8, probe };
        let err = s.calibrate(&req).unwrap_err();
        assert!(err.contains("calibration rejected"), "{err}");
        assert_eq!(s.l2_len(), 0);
        // The name parses (interned) but the machine has no calibration, so
        // queries for it stay client errors.
        let q = QueryRequest { machine: "custom:store-reject".into(), ..query(1024, None) };
        assert!(s.resolve(&q).unwrap_err().contains("no registered calibration"));
    }

    #[test]
    fn invalid_queries_are_client_errors() {
        let s = store(8, false);
        assert!(s.resolve(&query(8, Some(vec![0.0; 3]))).unwrap_err().contains("samples"));
        assert!(s
            .resolve(&QueryRequest { machine: "nope".into(), ..query(8, None) })
            .is_err());
        assert!(s
            .resolve(&QueryRequest { ranks: 1_000_000, ..query(8, None) })
            .unwrap_err()
            .contains("capacity"));
        assert!(s
            .resolve(&QueryRequest { ranks: 1, ..query(8, None) })
            .unwrap_err()
            .contains("at least 2"));
        assert!(s
            .resolve(&query(8, Some(vec![f64::NAN; 8])))
            .unwrap_err()
            .contains("non-finite"));
    }
}
