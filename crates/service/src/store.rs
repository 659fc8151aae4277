//! The tiered evidence store behind `papd`.
//!
//! * **L1** — an LRU of fully resolved `(cell, policy) → algorithm`
//!   answers. Entries carry the generation of the evidence cell they were
//!   derived from; an entry whose cell has since moved on misses.
//! * **L2** — precomputed evidence cells (full [`BenchMatrix`]es) in one
//!   index ordered by `(machine, collective, ranks, bytes)`, seeded from a
//!   startup tuning sweep, a warm-restart snapshot or a peer's replica
//!   pages. All three go through one `publish`, which runs the one
//!   evidence check over a whole batch before inserting any of it. A
//!   miss on exact message size probes the two neighbouring sizes in the
//!   `(machine, collective, ranks)` prefix and takes the nearer by
//!   [`pap_core::nearer_size`], the rule of [`pap_core::TuningTable::lookup`].
//!   Hits share the cell (`Arc`) rather than copy it; an upgrade replaces it.
//! * **L3** — on-demand refinement: a cold cell is computed with the cheap
//!   analytical backend ([`TierStore::compute_miss`], which `papd` runs on
//!   its compute pool; [`TierStore::lookup`] is the cache-only half) and, when
//!   enabled, a background worker re-measures it with the event-driven
//!   simulator and *upgrades* the cell. Upgrades bump the cell generation,
//!   which invalidates derived L1 entries; a refinement that observes a
//!   generation change while it ran is dropped, never applied stale.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, RwLock};

use pap_arrival::{classify_delays, Shape};
use pap_calibrate::fit_probe;
use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use pap_core::{
    nearer_size, select, select_with_faults, tune_machine, BenchMatrix, FaultMatrix,
    SelectionPolicy, TunePlan, TuneRecord, TuningEntry,
};
use pap_microbench::{
    fault_sweep, no_delay_runtime, standard_grid, sweep, Backend, BenchConfig, BenchError,
    SkewPolicy, FAULT_GRID_VERSION,
};
use pap_sim::{register_custom_platform, MachineId, Platform};

use crate::cache::Lru;
use crate::proto::{CalibrateAnswer, CalibrateRequest, QueryAnswer, QueryRequest, ReplicaCell, Tier};
use crate::snapshot::Snapshot;
use crate::stats::Stats;

/// Identity of one L2 evidence cell. Orders by machine, collective, ranks,
/// then bytes: the first three are the fleet ring's routing key, and the
/// sizes of one such prefix sit next to each other in the index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Canonical machine name.
    pub(crate) machine: String,
    /// Collective kind.
    pub(crate) kind: CollectiveKind,
    /// Rank count.
    pub(crate) ranks: usize,
    /// Message size (bytes).
    pub(crate) bytes: u64,
}

impl CellKey {
    /// The cell a tuning decision on `machine` was made for.
    pub(crate) fn of(machine: &str, entry: &TuningEntry) -> Self {
        CellKey { machine: machine.to_string(), kind: entry.kind, ranks: entry.ranks, bytes: entry.bytes }
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} at {} ranks, {} B", self.machine, self.kind, self.ranks, self.bytes)
    }
}

/// One L2 evidence cell.
#[derive(Debug, Clone)]
pub(crate) struct CellEvidence {
    /// The benchmark matrix (algorithms × arrival patterns).
    pub(crate) matrix: BenchMatrix,
    /// The status-quo (no-delay-fastest) pick, kept for reporting.
    pub(crate) status_quo: u8,
    /// Degraded-mode evidence (algorithms × fault scenarios), measured
    /// lazily the first time a fault-robust query hits the cell. Always
    /// sim-backed (the analytical model has no fault model).
    pub(crate) faults: Option<FaultMatrix>,
    /// Backend that produced the matrix (`"model"` or `"sim"`).
    pub(crate) backend: String,
    /// Bumped on every refinement upgrade; L1 entries derived from an older
    /// generation are stale.
    pub(crate) generation: u64,
}

/// The one check on evidence cells before `papd` may serve them: snapshot
/// files ([`Snapshot::from_json`]), replica pages and tuning records all
/// pass it, so no query meets evidence it would panic on. The matrix must
/// be a full grid of finite positive runtimes over distinct algorithms and
/// patterns; every alg the cell names (`picks`: its status quo, and a
/// snapshot's decision) must be a column; fault evidence must be from the
/// current grid, for this collective and size, a full grid with a complete
/// `clean` baseline row.
pub(crate) fn check_evidence(
    key: &CellKey,
    picks: &[(&str, u8)],
    matrix: &BenchMatrix,
    faults: Option<&FaultMatrix>,
) -> Result<(), String> {
    let (algs, patterns) = (&matrix.algs, &matrix.patterns);
    if !is_grid(&matrix.values, patterns.len(), algs.len()) {
        return Err(format!("matrix is not a {} pattern x {} alg grid", patterns.len(), algs.len()));
    }
    if let Some(v) = matrix.values.iter().flatten().find(|v| !(v.is_finite() && **v > 0.0)) {
        return Err(format!("matrix holds {v}, not a finite positive runtime"));
    }
    if has_repeats(algs) || has_repeats(patterns) {
        return Err("matrix repeats an algorithm or a pattern".to_string());
    }
    if let Some((what, alg)) = picks.iter().find(|(_, alg)| !algs.contains(alg)) {
        return Err(format!("{what} alg {alg} absent from its evidence matrix"));
    }
    let Some(fm) = faults else { return Ok(()) };
    // Grids from another sweep definition measure other scenarios; serving
    // from them would mix incomparable evidence, so they are refused, not
    // re-measured, and the operator learns the evidence is stale.
    if fm.grid_version != FAULT_GRID_VERSION {
        return Err(format!(
            "fault grid v{} does not match current v{FAULT_GRID_VERSION}; re-run `papctl tune --faults`",
            fm.grid_version
        ));
    }
    if fm.kind != key.kind || fm.bytes != key.bytes {
        return Err(format!(
            "fault evidence is for {} @ {} B, cell is {} @ {} B",
            fm.kind, fm.bytes, key.kind, key.bytes
        ));
    }
    let (rows, cols, decided) = (fm.scenarios.len(), fm.algs.len(), &fm.statically_decided);
    if !is_grid(&fm.values, rows, cols) || !(decided.is_empty() || is_grid(decided, rows, cols)) {
        return Err("fault evidence is not a scenario x alg grid".to_string());
    }
    if fm.values.iter().flatten().flatten().any(|v| !(v.is_finite() && *v > 0.0)) {
        return Err("fault evidence holds a runtime that is not finite and positive".to_string());
    }
    match fm.scenario_index("clean") {
        Some(row) if fm.values[row].iter().all(Option::is_some) => Ok(()),
        _ => Err("fault evidence lacks a complete clean row".to_string()),
    }
}

fn is_grid<T>(values: &[Vec<T>], rows: usize, cols: usize) -> bool {
    values.len() == rows && values.iter().all(|row| row.len() == cols)
}

fn has_repeats<T: PartialEq>(xs: &[T]) -> bool {
    xs.iter().enumerate().any(|(i, x)| xs[..i].contains(x))
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
    l2: RwLock<BTreeMap<CellKey, Arc<CellEvidence>>>,
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
    pub(crate) fn new(
        stats: Arc<Stats>,
        l1_capacity: usize,
        default_policy: DefaultPolicy,
        compute_backend: Backend,
        refine_enabled: bool,
    ) -> Self {
        TierStore {
            l2: RwLock::new(BTreeMap::new()),
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
    pub(crate) fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Seed L2 from a tuning run's records. Returns the number of cells.
    pub(crate) fn ingest_records(
        &self,
        machine: &str,
        records: &[TuneRecord],
        backend: &str,
    ) -> Result<usize, String> {
        let cells = records.iter().map(|rec| {
            let cell = CellEvidence {
                matrix: rec.matrix.clone(),
                status_quo: rec.status_quo,
                faults: None,
                backend: backend.to_string(),
                generation: 0,
            };
            (CellKey::of(machine, &rec.entry), cell)
        });
        self.publish("tuned", cells.collect())
    }

    /// Seed L2 from a warm-restart snapshot. Cells carrying fault evidence
    /// (`papctl tune --faults`) seed it too, so a `--policy fault_robust`
    /// daemon answers straight from L2 with no lazy fault-grid re-measure.
    pub(crate) fn ingest_snapshot(&self, snap: &Snapshot) -> Result<usize, String> {
        let cells = snap.cells.iter().map(|sc| {
            let cell = CellEvidence {
                matrix: sc.matrix.clone(),
                status_quo: sc.status_quo,
                faults: sc.faults.clone(),
                backend: snap.backend.clone(),
                generation: 0,
            };
            (CellKey::of(&snap.machine, &sc.entry), cell)
        });
        self.publish("snapshot", cells.collect())
    }

    /// Ingest a page of replicated cells (the receiving side of
    /// [`TierStore::export_cells`]), checked like a snapshot. Returns the
    /// number of cells ingested.
    pub(crate) fn ingest_replica(&self, cells: &[ReplicaCell]) -> Result<usize, String> {
        let cells = cells.iter().map(|rc| {
            let (kind, ranks, bytes) = (rc.collective, rc.ranks, rc.bytes);
            let key = CellKey { machine: rc.machine.clone(), kind, ranks, bytes };
            let cell = CellEvidence {
                matrix: rc.matrix.clone(),
                status_quo: rc.status_quo,
                faults: rc.faults.clone(),
                backend: rc.backend.clone(),
                generation: rc.generation,
            };
            (key, cell)
        });
        self.publish("replica", cells.collect())
    }

    /// Insert a batch of evidence cells. The whole batch passes
    /// [`check_evidence`] first, so one bad cell inserts nothing; the error
    /// names it. Returns the number of cells inserted.
    fn publish(&self, source: &str, cells: Vec<(CellKey, CellEvidence)>) -> Result<usize, String> {
        for (i, (key, cell)) in cells.iter().enumerate() {
            check_evidence(key, &[("status-quo", cell.status_quo)], &cell.matrix, cell.faults.as_ref())
                .map_err(|e| format!("{source} cell {i} ({key}): {e}"))?;
        }
        let n = cells.len();
        let mut l2 = self.l2.write().expect("l2 lock");
        l2.extend(cells.into_iter().map(|(key, cell)| (key, Arc::new(cell))));
        self.stats.l2_cells.set(l2.len() as i64);
        Ok(n)
    }

    /// Number of L2 cells currently held.
    pub fn l2_len(&self) -> usize {
        self.l2.read().expect("l2 lock").len()
    }

    /// Export one page of L2 cells for warm replication, in index order
    /// (machine, collective, ranks, bytes), so a client paging
    /// `offset = 0, n, 2n, …` over an unchanging store sees every cell
    /// exactly once. Returns `(total, page)`.
    pub(crate) fn export_cells(&self, offset: usize, limit: usize) -> (usize, Vec<ReplicaCell>) {
        let l2 = self.l2.read().expect("l2 lock");
        let page = l2
            .iter()
            .skip(offset)
            .take(limit)
            .map(|(k, c)| ReplicaCell {
                machine: k.machine.clone(),
                collective: k.kind,
                ranks: k.ranks,
                bytes: k.bytes,
                status_quo: c.status_quo,
                matrix: c.matrix.clone(),
                faults: c.faults.clone(),
                backend: c.backend.clone(),
                generation: c.generation,
            })
            .collect();
        (l2.len(), page)
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
    pub(crate) fn calibrate(
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
        self.ingest_records(machine.name(), &records, &self.compute_backend.to_string())?;
        self.stats.calibration_accepted(fit.median_rel_residual);

        let mut tickets = Vec::new();
        if self.refine_enabled && self.compute_backend != Backend::Sim {
            let mut refining = self.refining.lock().expect("refining lock");
            for rec in &records {
                let key = CellKey::of(machine.name(), &rec.entry);
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

    /// Resolve one query through the tiers: `TierStore::lookup`, then
    /// `TierStore::compute_miss` when the caches cannot answer.
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
    pub(crate) fn lookup(
        &self,
        q: &QueryRequest,
    ) -> Result<Option<(QueryAnswer, Option<CellKey>)>, String> {
        self.resolve_tiers(q, false)
    }

    /// The measuring half of [`TierStore::resolve`]: re-check the caches (a
    /// racing query may have published the cell meanwhile), then compute
    /// what they lack.
    pub(crate) fn compute_miss(
        &self,
        q: &QueryRequest,
    ) -> Result<(QueryAnswer, Option<CellKey>), String> {
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

        // L2: precomputed evidence, exact then nearest-size. On a miss,
        // compute the cell with the cheap backend; fault-robust routing needs
        // the fault grid on top, measured up front so the cell carries both.
        let fault_robust = matches!(policy, SelectionPolicy::FaultRobust { .. });
        let (evidence_key, mut cell, tier) = match self.l2_lookup(&key) {
            // A fault-robust query must measure fault evidence the cell lacks.
            Some((_, cell, _)) if !measure && fault_robust && cell.faults.is_none() => return Ok(None),
            Some((k, cell, exact)) => (k, cell, if exact { Tier::L2 } else { Tier::L2Near }),
            None if !measure => return Ok(None),
            None => {
                self.stats.tier_miss();
                let matrix = self.compute_matrix(machine_id, &key, self.compute_backend)?;
                let faults = fault_robust
                    .then(|| measure_fault_matrix(machine_id, key.kind, key.ranks, key.bytes))
                    .transpose()?;
                let status_quo = select(&matrix, &SelectionPolicy::NoDelayFastest)?;
                let backend = self.compute_backend.to_string();
                let cell = CellEvidence { matrix, status_quo, faults, backend, generation: 0 };
                (key.clone(), Arc::new(cell), Tier::Computed)
            }
        };
        let alg = self.select_in_cell(machine_id, &evidence_key, &mut cell, &policy)?;
        match tier {
            Tier::L2 => self.stats.l2_exact_hit(),
            Tier::L2Near => self.stats.l2_near_hit(),
            _ => {
                // Publish the computed cell, unless a racing query published
                // it meanwhile (same inputs → same matrix for the
                // deterministic backends, so either is correct).
                let mut l2 = self.l2.write().expect("l2 lock");
                l2.entry(key).or_insert_with(|| Arc::clone(&cell));
                self.stats.l2_cells.set(l2.len() as i64);
            }
        }
        // A hit schedules a sim refinement of model-backed evidence; the
        // caller owns the worker pool.
        let refine = self.should_refine(&evidence_key, &cell);
        let exact = tier != Tier::L2Near;
        let (backend, generation) = (cell.backend.clone(), cell.generation);
        let l1 = L1Entry { alg, exact, evidence: evidence_key.clone(), backend, generation };
        self.l1_insert(l1_key, l1);
        Ok(Some((
            answer(alg, tier, exact, &evidence_key, &cell.backend, cell.generation, refine),
            refine.then_some(evidence_key),
        )))
    }

    /// Re-measure `key` with the simulator and upgrade the cell if it is
    /// still the generation the refinement started from. Called from a
    /// background worker; never panics on missing cells.
    pub(crate) fn refine(&self, key: &CellKey) {
        let started_from = self.l2.read().expect("l2 lock").get(key).map(|cell| cell.generation);
        let (Some(started_from), Ok(machine_id)) = (started_from, key.machine.parse::<MachineId>()) else {
            return self.cancel_refine(key);
        };
        let result = self.compute_matrix(machine_id, key, Backend::Sim);
        self.refining.lock().expect("refining lock").remove(key);
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
                    // is stale. L1 entries derived from the old generation
                    // miss from now on.
                    Some(cell) if cell.generation == started_from => {
                        *cell = Arc::new(CellEvidence {
                            matrix,
                            status_quo,
                            faults: cell.faults.clone(),
                            backend: Backend::Sim.to_string(),
                            generation: started_from + 1,
                        });
                        self.stats.refine_applied();
                    }
                    _ => self.stats.refine_dropped(),
                }
            }
            Err(_) => self.stats.refine_dropped(),
        }
    }

    /// Abandon a scheduled refinement (e.g. the worker pool rejected it).
    pub(crate) fn cancel_refine(&self, key: &CellKey) {
        self.refining.lock().expect("refining lock").remove(key);
        self.stats.refine_dropped();
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

    /// Exact L2 lookup, then the nearer by [`nearer_size`] of the two
    /// neighbouring sizes with the same machine, collective and rank count.
    fn l2_lookup(&self, key: &CellKey) -> Option<(CellKey, Arc<CellEvidence>, bool)> {
        let l2 = self.l2.read().expect("l2 lock");
        if let Some(cell) = l2.get(key) {
            return Some((key.clone(), Arc::clone(cell), true));
        }
        let same_prefix =
            |(k, _): &(&CellKey, _)| k.machine == key.machine && k.kind == key.kind && k.ranks == key.ranks;
        let below = l2.range(..key).next_back().filter(same_prefix);
        let above = l2.range(key..).next().filter(same_prefix);
        below
            .into_iter()
            .chain(above)
            .min_by(|a, b| nearer_size(key.bytes, a.0.bytes, b.0.bytes))
            .map(|(k, cell)| (k.clone(), Arc::clone(cell), false))
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
        cell: &mut Arc<CellEvidence>,
        policy: &SelectionPolicy,
    ) -> Result<u8, String> {
        if matches!(policy, SelectionPolicy::FaultRobust { .. }) && cell.faults.is_none() {
            let fm = measure_fault_matrix(machine_id, key.kind, key.ranks, key.bytes)?;
            Arc::make_mut(cell).faults = Some(fm.clone());
            let mut l2 = self.l2.write().expect("l2 lock");
            if let Some(live) = l2.get_mut(key) {
                if live.generation == cell.generation && live.faults.is_none() {
                    Arc::make_mut(live).faults = Some(fm);
                }
            }
        }
        select_with_faults(&cell.matrix, cell.faults.as_ref(), policy)
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
    let context = |e: BenchError| format!("fault grid {kind} @ {bytes} B: {e}");
    let first = *algs.first().ok_or_else(|| context(BenchError::NoAlgorithms(kind)))?;
    let t = no_delay_runtime(&platform, kind, first, bytes, &cfg, 0).map_err(context)?;
    let scenarios = standard_grid(ranks, t);
    let sw = fault_sweep(&platform, kind, &algs, bytes, &scenarios, &cfg).map_err(context)?;
    Ok(FaultMatrix::from_fault_sweep(&sw))
}

/// Stable wire label of a selection policy.
pub(crate) fn policy_label(policy: &SelectionPolicy) -> String {
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
        s.ingest_records("SimCluster", &records, "model").unwrap();
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

    /// A hand-made 8-rank Reduce record at `bytes` whose `fastest` alg (1
    /// or 2) wins under both of its patterns.
    fn record(bytes: u64, fastest: u8) -> TuneRecord {
        let row = if fastest == 1 { vec![1.0, 2.0] } else { vec![2.0, 1.0] };
        TuneRecord {
            entry: TuningEntry {
                machine: "SimCluster".into(),
                kind: CollectiveKind::Reduce,
                ranks: 8,
                bytes,
                alg: fastest,
                policy: "robust".into(),
            },
            matrix: BenchMatrix {
                kind: CollectiveKind::Reduce,
                bytes,
                algs: vec![1, 2],
                patterns: vec!["no_delay".into(), "last_delayed".into()],
                values: vec![row.clone(), row],
            },
            status_quo: fastest,
        }
    }

    #[test]
    fn near_size_ties_resolve_the_same_in_every_store() {
        // 16 B is halfway (in log space) between the 8 B and 32 B cells.
        let records = [record(8, 1), record(32, 2)];
        let table = pap_core::TuningTable { entries: records.iter().map(|r| r.entry.clone()).collect() };
        let tabled = table.lookup("SimCluster", CollectiveKind::Reduce, 8, 16).unwrap();
        assert_eq!((tabled.bytes, tabled.alg), (8, 1));
        for _ in 0..16 {
            let s = store(0, false);
            s.ingest_records("SimCluster", &records, "model").unwrap();
            let (a, _) = s.resolve(&query(16, None)).unwrap();
            assert_eq!((a.tier, a.evidence_bytes, a.alg), (Tier::L2Near, 8, 1));
        }
    }

    #[test]
    fn malformed_evidence_is_refused_naming_the_cell() {
        let cell = "cell 0 (SimCluster MPI_Reduce at 8 ranks, 8 B)";
        let mut short = record(8, 1);
        short.matrix.values.truncate(1); // 2 patterns, 1 row
        let mut nan = record(8, 1);
        nan.matrix.values[1][0] = f64::NAN;

        // As a replica page.
        let donor = store(0, false);
        donor.ingest_records("SimCluster", &[record(8, 1)], "model").unwrap();
        let (_, mut page) = donor.export_cells(0, 1);
        page[0].matrix = short.matrix.clone();
        let replica = store(0, false);
        let err = replica.ingest_replica(&page).unwrap_err();
        assert!(err.contains(&format!("replica {cell}")) && err.contains("grid"), "{err}");
        page[0].matrix = nan.matrix.clone();
        assert!(replica.ingest_replica(&page).unwrap_err().contains("NaN"));
        assert_eq!(replica.l2_len(), 0, "nothing ingested");

        // As a snapshot file.
        let path = std::env::temp_dir().join(format!("pap_malformed_snapshot_{}.json", std::process::id()));
        Snapshot::from_records("SimCluster", 8, "model", &[short]).save(&path).unwrap();
        let err = Snapshot::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains(&format!("snapshot {cell}")) && err.contains("grid"), "{err}");

        // And through every other ingest path: a batch with one bad cell
        // inserts none of it.
        let s = store(0, false);
        let snap = Snapshot::from_records("SimCluster", 8, "model", &[record(32, 2), nan.clone()]);
        assert!(s.ingest_snapshot(&snap).unwrap_err().contains("snapshot cell 1"));
        assert!(s.ingest_records("SimCluster", &[record(32, 2), nan], "model").is_err());
        assert_eq!(s.l2_len(), 0);
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
    fn collectives_without_algorithms_are_named_in_the_error() {
        let s = store(8, false);
        let q = QueryRequest { collective: CollectiveKind::Bcast, ..query(2048, None) };
        let err = s.resolve(&q).unwrap_err();
        assert!(err.contains("MPI_Bcast has no selectable algorithms"), "{err}");
        assert_eq!(s.l2_len(), 0, "nothing is published for the refused cell");
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
        s.ingest_records("SimCluster", &records, "model").unwrap();
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
        s.ingest_snapshot(&snap).unwrap();
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
