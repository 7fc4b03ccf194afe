//! Exact modulo mapping via a CNF encoding of the MRRG — the fifth
//! [`IiAttempt`], and the only one whose *failures* are proofs.
//!
//! Every heuristic in the workspace reports failures as upper bounds
//! ("didn't find a mapping at this II"). This mapper lowers the joint
//! placement-and-routing problem at one II to propositional SAT and asks
//! the vendored CDCL core ([`rewire_sat`]); an UNSAT answer is a
//! machine-checked proof that *no* mapping exists at that II within the
//! shared schedule horizon, surfaced as
//! [`AttemptVerdict::InfeasibleAtII`]. A SAT answer decodes into a
//! [`Mapping`] that passes [`Mapping::validate`], and when every lower II
//! since MII was refuted in the same sweep the mapped II carries an
//! [`AttemptVerdict::Optimal`] certificate.
//!
//! # The encoding
//!
//! Given `(dfg, cgra, ii)` and the horizon `H = default_horizon(dfg, ii)`
//! (the same bound the heuristic mappers schedule within, so UNSAT here
//! refutes anything they could produce):
//!
//! * **Placement** — one boolean `x[v,p,t]` per node, candidate PE, and
//!   time in the node's ASAP/ALAP window; exactly one per node. Per
//!   `(PE, slot)`, at most one placement — the FU cell exclusivity of
//!   [`Occupancy`](rewire_mrrg::Occupancy).
//! * **Routing** — per edge, location variables `At[e,c,ℓ]` ("the value
//!   is at wire/register ℓ at absolute cycle `c`") plus per-cycle
//!   resource-use variables for links and registers, mirroring the layered
//!   router's transition relation exactly: a link hop is legal from any
//!   carrier, a register cell is enterable from any carrier on its PE, and
//!   the final *delivery hop* may cross one link into the consumer during
//!   the consumption cycle itself. Support clauses chain strictly backward
//!   in time and ground at the producer's placement, so circular
//!   self-support is impossible by construction.
//! * **Exclusivity** — per-signal usage variables aggregate the edge-level
//!   uses (edges of one producer share cells at equal phases, exactly like
//!   [`Occupancy`](rewire_mrrg::Occupancy) refcounting), and a sequential
//!   at-most-one ladder per `(resource, slot)` enforces modulo
//!   exclusivity. This also subsumes the router's register-run bound: a
//!   residency longer than II would claim some modulo cell twice.
//!
//! # Determinism and budget contract
//!
//! The encoder iterates every collection in fixed index order and the CDCL
//! core is deterministic, so the same `(dfg, cgra, ii)` always yields the
//! same verdict, the same model, and the same work counters. The primary
//! budget is a deterministic per-II conflict cap; the engine's wall-clock
//! deadline is polled as a secondary stop. Both truncations yield
//! [`AttemptVerdict::Unknown`] — never a flipped verdict.

use crate::engine::{AttemptCtx, AttemptOutcome, AttemptVerdict, IiAttempt, IiSearch};
use crate::schedule::{candidate_pes, default_horizon, schedule_asap};
use crate::{GiveUpReason, MapLimits, MapOutcome, MapStats, Mapper, Mapping};
use rewire_arch::{Cgra, LinkId, PeId};
use rewire_dfg::Dfg;
use rewire_mrrg::{Mrrg, Resource, Route};
use rewire_obs as obs;
use rewire_sat::{Lit, SolveResult, Solver, Var};
use std::collections::BTreeMap;
use std::time::Instant;

/// Instances with more DFG nodes are refused outright (CNF size grows with
/// nodes × windows × fabric). The default admits the whole bundled kernel
/// suite (29–48 nodes); the conflict budget and the variable-count valve
/// keep the hard ones truncating to `Unknown` instead of hanging.
const DEFAULT_MAX_NODES: usize = 48;
/// Instances on fabrics with more PEs are refused outright.
const DEFAULT_MAX_PES: usize = 40;
/// Deterministic per-II conflict budget: the primary truncation knob.
const DEFAULT_CONFLICT_BUDGET: u64 = 200_000;
/// Per-II safety valve: an encoding estimated beyond this many variables
/// reports [`AttemptVerdict::Unknown`] instead of being built.
const MAX_ENCODED_VARS: usize = 2_000_000;

/// The exact SAT-backed mapper. Produces machine-checked
/// [`AttemptVerdict`]s per II; see the module docs for the encoding and
/// the determinism/budget contract.
///
/// # Examples
///
/// ```
/// use rewire_arch::{presets, OpKind};
/// use rewire_dfg::Dfg;
/// use rewire_mappers::{ExactSatMapper, MapLimits, Mapper};
///
/// let cgra = presets::paper_4x4_r4();
/// let mut dfg = Dfg::new("pair");
/// let a = dfg.add_node("a", OpKind::Add);
/// let b = dfg.add_node("b", OpKind::Add);
/// dfg.add_edge(a, b, 0)?;
///
/// let out = ExactSatMapper::new().map(&dfg, &cgra, &MapLimits::fast());
/// assert_eq!(out.stats.achieved_ii, Some(1));
/// assert!(out.stats.proven_optimal(), "II 1 carries an optimality proof");
/// # Ok::<(), rewire_dfg::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ExactSatMapper {
    max_nodes: usize,
    max_pes: usize,
    conflict_budget: u64,
}

impl Default for ExactSatMapper {
    fn default() -> Self {
        Self {
            max_nodes: DEFAULT_MAX_NODES,
            max_pes: DEFAULT_MAX_PES,
            conflict_budget: DEFAULT_CONFLICT_BUDGET,
        }
    }
}

impl ExactSatMapper {
    /// Creates a mapper with the default size guards and conflict budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the node-count refusal guard.
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Overrides the PE-count refusal guard.
    pub fn with_max_pes(mut self, max_pes: usize) -> Self {
        self.max_pes = max_pes;
        self
    }

    /// Overrides the deterministic per-II conflict budget.
    pub fn with_conflict_budget(mut self, conflicts: u64) -> Self {
        self.conflict_budget = conflicts;
        self
    }

    /// The schedule horizon the encoder proves within at `ii` — shared
    /// with the heuristic mappers, so an [`AttemptVerdict::InfeasibleAtII`]
    /// refutes any mapping whose latest operation fits under this bound.
    /// Oracles comparing a heuristic success against an exact UNSAT must
    /// check the heuristic schedule fits (see
    /// [`Mapping::schedule_length`]).
    pub fn proof_horizon(dfg: &Dfg, ii: u32) -> u32 {
        default_horizon(dfg, ii)
    }

    /// Solves one II to a verdict. The workhorse behind [`ExactAttempt`].
    fn solve_ii(&self, dfg: &Dfg, cgra: &Cgra, ii: u32, deadline: Instant) -> IiResolution {
        if Instant::now() >= deadline {
            obs::counter("exact.unknown").incr();
            return IiResolution::Unknown { conflicts: 0 };
        }
        let horizon = Self::proof_horizon(dfg, ii);
        let built = {
            let _span = obs::span("exact.encode");
            Encoder::build(dfg, cgra, ii, horizon)
        };
        let mut enc = match built {
            Ok(enc) => enc,
            Err(EncodeError::Infeasible) => {
                obs::counter("exact.unsat").incr();
                return IiResolution::Infeasible { conflicts: 0 };
            }
            Err(EncodeError::TooLarge) => {
                obs::counter("exact.too_large").incr();
                return IiResolution::Unknown { conflicts: 0 };
            }
        };
        obs::counter("exact.vars").add(enc.solver.num_vars() as u64);
        obs::counter("exact.clauses").add(enc.solver.num_clauses() as u64);
        let verdict = {
            let _span = obs::span("exact.solve");
            let mut stop = || Instant::now() >= deadline;
            enc.solver.solve_limited(self.conflict_budget, &mut stop)
        };
        let stats = enc.solver.stats();
        obs::counter("sat.decisions").add(stats.decisions);
        obs::counter("sat.conflicts").add(stats.conflicts);
        obs::counter("sat.propagations").add(stats.propagations);
        obs::counter("sat.restarts").add(stats.restarts);
        match verdict {
            SolveResult::Sat => match enc.decode() {
                Some(mapping) => {
                    obs::counter("exact.sat").incr();
                    IiResolution::Mapped {
                        mapping: Box::new(mapping),
                        conflicts: stats.conflicts,
                    }
                }
                None => {
                    // A decode failure means the model and the MRRG
                    // semantics disagree — an encoder bug. Soundness is
                    // preserved by never reporting the broken mapping.
                    obs::counter("exact.decode_invalid").incr();
                    IiResolution::Unknown {
                        conflicts: stats.conflicts,
                    }
                }
            },
            SolveResult::Unsat => {
                obs::counter("exact.unsat").incr();
                IiResolution::Infeasible {
                    conflicts: stats.conflicts,
                }
            }
            SolveResult::Unknown => {
                obs::counter("exact.unknown").incr();
                IiResolution::Unknown {
                    conflicts: stats.conflicts,
                }
            }
        }
    }
}

/// What one II resolved to, before verdict labelling.
enum IiResolution {
    Mapped {
        mapping: Box<Mapping>,
        conflicts: u64,
    },
    Infeasible {
        conflicts: u64,
    },
    Unknown {
        conflicts: u64,
    },
}

/// The exact backend driven by the shared engine. Stateful across the II
/// sweep: a SAT answer is labelled [`AttemptVerdict::Optimal`] only when
/// every lower II since MII was proven UNSAT (no budget truncation seen).
pub struct ExactAttempt<'m> {
    mapper: &'m ExactSatMapper,
    saw_unknown: bool,
}

impl<'m> ExactAttempt<'m> {
    /// Creates a fresh attempt for one engine-driven II sweep.
    pub fn new(mapper: &'m ExactSatMapper) -> Self {
        Self {
            mapper,
            saw_unknown: false,
        }
    }
}

impl IiAttempt for ExactAttempt<'_> {
    fn attempt(&mut self, dfg: &Dfg, cgra: &Cgra, ctx: &AttemptCtx<'_>) -> AttemptOutcome {
        // Solver conflicts stand in for the iteration counter: the unit of
        // search work an exact attempt performs per II.
        match self.mapper.solve_ii(dfg, cgra, ctx.ii, ctx.deadline) {
            IiResolution::Mapped { mapping, conflicts } => {
                let outcome = AttemptOutcome::mapped(*mapping, conflicts);
                if self.saw_unknown {
                    // Some lower II was truncated: the mapping stands but
                    // optimality is unproven, so no verdict is attached.
                    outcome
                } else {
                    outcome.with_verdict(AttemptVerdict::Optimal)
                }
            }
            IiResolution::Infeasible { conflicts } => {
                AttemptOutcome::failed(conflicts).with_verdict(AttemptVerdict::InfeasibleAtII)
            }
            IiResolution::Unknown { conflicts } => {
                self.saw_unknown = true;
                AttemptOutcome::failed(conflicts)
                    .with_verdict(AttemptVerdict::Unknown { conflicts })
            }
        }
    }
}

impl Mapper for ExactSatMapper {
    fn name(&self) -> &'static str {
        "Exact"
    }

    fn map(&self, dfg: &Dfg, cgra: &Cgra, limits: &MapLimits) -> MapOutcome {
        // Size guard in front of the engine: refuse instances whose CNF
        // would dwarf the budget.
        if dfg.num_nodes() > self.max_nodes || cgra.num_pes() > self.max_pes {
            obs::counter("exact.refused").incr();
            return MapOutcome {
                mapping: None,
                stats: MapStats {
                    mapper: self.name().to_string(),
                    kernel: dfg.name().to_string(),
                    fabric: cgra.label(),
                    seed: limits.seed,
                    gave_up: Some(GiveUpReason::Refused),
                    ..MapStats::default()
                },
            };
        }
        IiSearch::new(self.name()).run(dfg, cgra, limits, &mut ExactAttempt::new(self))
    }
}

/// Why an encoding was not built.
enum EncodeError {
    /// Proven infeasible before any clause: no schedule at this II, an
    /// empty ASAP/ALAP window, or an op no PE supports.
    Infeasible,
    /// The size estimate blew past [`MAX_ENCODED_VARS`].
    TooLarge,
}

/// Static fabric tables the encoder indexes by dense position.
struct Fabric {
    num_pes: usize,
    regs: usize,
    /// Locations per PE: wire + one per register.
    stride: usize,
    num_locs: usize,
    /// `(id, src PE index, dst PE index)` in [`Cgra::links`] order.
    links: Vec<(LinkId, usize, usize)>,
    links_into: Vec<Vec<usize>>,
    /// All-pairs hop distance over the NoC (`u32::MAX` = unreachable).
    hops: Vec<Vec<u32>>,
}

impl Fabric {
    fn build(cgra: &Cgra) -> Self {
        let num_pes = cgra.num_pes();
        let regs = cgra.regs_per_pe() as usize;
        let mut links = Vec::new();
        let mut links_into = vec![Vec::new(); num_pes];
        for l in cgra.links() {
            let li = links.len();
            links.push((l.id(), l.src().index(), l.dst().index()));
            links_into[l.dst().index()].push(li);
        }
        let mut adj = vec![Vec::new(); num_pes];
        for &(_, s, d) in &links {
            adj[s].push(d);
        }
        let mut hops = vec![vec![u32::MAX; num_pes]; num_pes];
        for (s, row) in hops.iter_mut().enumerate() {
            row[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(p) = queue.pop_front() {
                for &q in &adj[p] {
                    if row[q] == u32::MAX {
                        row[q] = row[p] + 1;
                        queue.push_back(q);
                    }
                }
            }
        }
        Self {
            num_pes,
            regs,
            stride: 1 + regs,
            num_locs: num_pes * (1 + regs),
            links,
            links_into,
            hops,
        }
    }

    /// Dense location index: wire of `p`, or register `r` of `p`.
    fn wire(&self, p: usize) -> usize {
        p * self.stride
    }

    fn reg(&self, p: usize, r: usize) -> usize {
        p * self.stride + 1 + r
    }

    /// Global routing-entity index used for modulo-exclusivity buckets.
    fn link_entity(&self, li: usize) -> u32 {
        li as u32
    }

    fn reg_entity(&self, p: usize, r: usize) -> u32 {
        (self.links.len() + p * self.regs + r) as u32
    }
}

/// Per-edge variable tables over the edge's absolute-cycle range.
struct EdgeTables {
    /// Earliest cycle the value can exist: `asap(src) + 1`.
    lo: u32,
    /// `At[c,ℓ]`: value at location ℓ at cycle c (dense over the range).
    at: Vec<Option<Var>>,
    /// `LU[c,L]`: edge consumes link L during cycle c (step or delivery).
    lu: Vec<Option<Var>>,
    /// `RU[c,(p,r)]`: edge consumes register r of PE p during cycle c.
    ru: Vec<Option<Var>>,
}

impl EdgeTables {
    fn empty() -> Self {
        Self {
            lo: 1,
            at: Vec::new(),
            lu: Vec::new(),
            ru: Vec::new(),
        }
    }
}

/// The CNF builder + model decoder for one `(dfg, cgra, ii)` instance.
struct Encoder<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    fab: Fabric,
    ii: u32,
    asap: Vec<u32>,
    alap: Vec<u32>,
    /// Candidate PE indices per node, in PE-id order.
    cands: Vec<Vec<usize>>,
    solver: Solver,
    /// `false` once a root-level conflict is known; clause adds stop.
    consistent: bool,
    /// Per node: `(pe index, time, var)` in deterministic order.
    place: Vec<Vec<(usize, u32, Var)>>,
    /// Per node: time-indicator vars over the window (for timing clauses).
    time_ind: Vec<Vec<Var>>,
    edges: Vec<EdgeTables>,
    /// `(producer node, cycle, entity) ->` aggregated usage var.
    usage: BTreeMap<(u32, u32, u32), Var>,
    /// `(entity, slot) ->` usage lits for the modulo exclusivity ladder.
    route_buckets: BTreeMap<(u32, u32), Vec<Lit>>,
    /// `(pe, slot) ->` placement lits for FU exclusivity.
    fu_buckets: BTreeMap<(u32, u32), Vec<Lit>>,
    out_degree: Vec<usize>,
}

impl<'a> Encoder<'a> {
    fn build(dfg: &'a Dfg, cgra: &'a Cgra, ii: u32, horizon: u32) -> Result<Self, EncodeError> {
        let Some(asap) = schedule_asap(dfg, ii) else {
            // ii < RecMII: the dependence system has a positive cycle, so
            // no schedule exists at any horizon. A genuine proof.
            return Err(EncodeError::Infeasible);
        };
        let alap = schedule_alap(dfg, ii, horizon).ok_or(EncodeError::Infeasible)?;
        for v in dfg.node_ids() {
            if i64::from(asap[v.index()]) > alap[v.index()] {
                return Err(EncodeError::Infeasible);
            }
        }
        let alap: Vec<u32> = alap.into_iter().map(|t| t as u32).collect();
        let fab = Fabric::build(cgra);

        let mut cands = Vec::with_capacity(dfg.num_nodes());
        for v in dfg.nodes() {
            let pes: Vec<usize> = candidate_pes(cgra, v.op())
                .into_iter()
                .map(|p| p.index())
                .collect();
            if pes.is_empty() {
                return Err(EncodeError::Infeasible);
            }
            cands.push(pes);
        }

        // Size estimate before allocating anything var-shaped.
        let mut estimate: usize = 0;
        for e in dfg.edges() {
            let lo = asap[e.src().index()] + 1;
            let hi = alap[e.dst().index()] + e.distance() * ii;
            if hi < lo {
                continue;
            }
            let span = (hi - lo + 1) as usize;
            estimate = estimate
                .saturating_add(span * (fab.num_locs + fab.links.len() + fab.num_pes * fab.regs));
        }
        if estimate > MAX_ENCODED_VARS {
            return Err(EncodeError::TooLarge);
        }

        let mut out_degree = vec![0usize; dfg.num_nodes()];
        for e in dfg.edges() {
            out_degree[e.src().index()] += 1;
        }

        let mut enc = Self {
            dfg,
            cgra,
            fab,
            ii,
            asap,
            alap,
            cands,
            solver: Solver::new(),
            consistent: true,
            place: Vec::new(),
            time_ind: Vec::new(),
            edges: Vec::new(),
            usage: BTreeMap::new(),
            route_buckets: BTreeMap::new(),
            fu_buckets: BTreeMap::new(),
            out_degree,
        };
        enc.encode_placement();
        enc.encode_timing();
        for e in dfg.edges() {
            enc.encode_edge(e.id().index());
        }
        enc.encode_exclusivity();
        Ok(enc)
    }

    fn clause(&mut self, lits: &[Lit]) {
        if self.consistent {
            self.consistent = self.solver.add_clause(lits);
        }
    }

    /// At-most-one over `lits`: pairwise for short lists, a sequential
    /// (Sinz) ladder otherwise.
    fn at_most_one(&mut self, lits: &[Lit]) {
        if lits.len() <= 1 {
            return;
        }
        if lits.len() <= 5 {
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    self.clause(&[!lits[i], !lits[j]]);
                }
            }
            return;
        }
        let mut prev = self.solver.new_var();
        self.clause(&[!lits[0], Lit::positive(prev)]);
        for (i, &l) in lits.iter().enumerate().skip(1) {
            if i + 1 == lits.len() {
                self.clause(&[!Lit::positive(prev), !l]);
                break;
            }
            let s = self.solver.new_var();
            self.clause(&[!l, Lit::positive(s)]);
            self.clause(&[!Lit::positive(prev), Lit::positive(s)]);
            self.clause(&[!Lit::positive(prev), !l]);
            prev = s;
        }
    }

    /// Placement one-hots, FU exclusivity buckets, and time indicators.
    fn encode_placement(&mut self) {
        for v in self.dfg.node_ids() {
            let vi = v.index();
            let (lo, hi) = (self.asap[vi], self.alap[vi]);
            let mut xs = Vec::new();
            let mut tvars = Vec::new();
            for _ in lo..=hi {
                tvars.push(self.solver.new_var());
            }
            for &p in &self.cands[vi].clone() {
                for t in lo..=hi {
                    let x = self.solver.new_var();
                    xs.push((p, t, x));
                    // x → T: time indicators back the pairwise timing
                    // clauses without a quadratic blowup over PEs.
                    let t_ind = tvars[(t - lo) as usize];
                    self.clause(&[Lit::negative(x), Lit::positive(t_ind)]);
                    self.fu_buckets
                        .entry((p as u32, t % self.ii))
                        .or_default()
                        .push(Lit::positive(x));
                }
            }
            let alo: Vec<Lit> = xs.iter().map(|&(_, _, x)| Lit::positive(x)).collect();
            self.clause(&alo);
            self.at_most_one(&alo);
            self.place.push(xs);
            self.time_ind.push(tvars);
        }
    }

    /// Pairwise incompatibility for time pairs violating
    /// `t_dst + dist·II ≥ t_src + 1` — redundant with the support chain
    /// but a large propagation win for UNSAT proofs.
    fn encode_timing(&mut self) {
        for e in self.dfg.edges() {
            let (u, v, dist) = (e.src().index(), e.dst().index(), e.distance());
            if u == v {
                // A self-edge constrains only `dist·II ≥ 1`, which holds
                // whenever the ASAP schedule exists.
                continue;
            }
            let mut clauses = Vec::new();
            for tu in self.asap[u]..=self.alap[u] {
                for tv in self.asap[v]..=self.alap[v] {
                    if i64::from(tv) + i64::from(dist * self.ii) < i64::from(tu) + 1 {
                        let lu = self.time_ind[u][(tu - self.asap[u]) as usize];
                        let lv = self.time_ind[v][(tv - self.asap[v]) as usize];
                        clauses.push([Lit::negative(lu), Lit::negative(lv)]);
                    }
                }
            }
            for c in clauses {
                self.clause(&c);
            }
        }
    }

    /// The aggregated per-signal usage literal for `(producer, cycle,
    /// entity)`, creating the var (and registering it in the exclusivity
    /// bucket) on first use. Producers with a single out-edge use their
    /// edge-level var directly — the caller handles that fast path.
    fn usage_lit(&mut self, producer: u32, cycle: u32, entity: u32) -> Lit {
        if let Some(&u) = self.usage.get(&(producer, cycle, entity)) {
            return Lit::positive(u);
        }
        let u = self.solver.new_var();
        self.usage.insert((producer, cycle, entity), u);
        self.route_buckets
            .entry((entity, cycle % self.ii))
            .or_default()
            .push(Lit::positive(u));
        Lit::positive(u)
    }

    /// Registers one edge-level resource use in the exclusivity machinery.
    fn register_use(&mut self, producer: u32, cycle: u32, entity: u32, edge_var: Var) {
        if self.out_degree[producer as usize] == 1 {
            // Sole edge of this signal: the edge var *is* the usage var.
            self.route_buckets
                .entry((entity, cycle % self.ii))
                .or_default()
                .push(Lit::positive(edge_var));
        } else {
            let u = self.usage_lit(producer, cycle, entity);
            self.clause(&[Lit::negative(edge_var), u]);
        }
    }

    /// The ground literal for `At[e,c,Wire(p)]`: the producer departs from
    /// `p` at cycle `c` (i.e. is placed there at `c − 1`).
    fn ground_var(&self, u: usize, p: usize, c: u32) -> Option<Var> {
        if c == 0 {
            return None;
        }
        let t = c - 1;
        if t < self.asap[u] || t > self.alap[u] {
            return None;
        }
        self.place[u]
            .iter()
            .find(|&&(pp, tt, _)| pp == p && tt == t)
            .map(|&(_, _, x)| x)
    }

    /// Encodes one edge: location/use variables with reachability pruning,
    /// backward-chained support clauses, usage registration, and the
    /// arrival clause per consumer placement.
    fn encode_edge(&mut self, ei: usize) {
        let e = self.dfg.edge(rewire_dfg::EdgeId::new(ei as u32));
        let (u, v, dist) = (e.src().index(), e.dst().index(), e.distance());
        let lo = self.asap[u] + 1;
        let hi = self.alap[v] + dist * self.ii;
        if hi < lo {
            // Cannot happen while both windows are nonempty (the ASAP
            // schedule itself satisfies every edge), but keep it total.
            self.edges.push(EdgeTables::empty());
            return;
        }
        let span = (hi - lo + 1) as usize;
        let num_locs = self.fab.num_locs;
        let num_links = self.fab.links.len();
        let regslots = self.fab.num_pes * self.fab.regs;
        let mut tab = EdgeTables {
            lo,
            at: vec![None; span * num_locs],
            lu: vec![None; span * num_links],
            ru: vec![None; span * regslots],
        };

        // Admissible hop bounds, exactly the layered router's pruning
        // argument: a location is live at cycle `c` only if reachable from
        // some producer candidate within `c − lo` hops and within
        // `(hi − c) + 1` hops of some consumer candidate (the `+1` is the
        // delivery hop).
        let hops_from: Vec<u32> = (0..self.fab.num_pes)
            .map(|p| {
                self.cands[u]
                    .iter()
                    .map(|&s| self.fab.hops[s][p])
                    .min()
                    .unwrap_or(u32::MAX)
            })
            .collect();
        let hops_to: Vec<u32> = (0..self.fab.num_pes)
            .map(|p| {
                self.cands[v]
                    .iter()
                    .map(|&q| self.fab.hops[p][q])
                    .min()
                    .unwrap_or(u32::MAX)
            })
            .collect();
        let reach = |p: usize, c: u32| -> bool {
            c >= lo
                && c <= hi
                && hops_from[p] != u32::MAX
                && u64::from(hops_from[p]) <= u64::from(c - lo)
                && hops_to[p] != u32::MAX
                && u64::from(hops_to[p]) <= u64::from(hi - c) + 1
        };
        // Cycles at which this edge can arrive, for delivery-hop pruning.
        let mut arrival = vec![false; span];
        for t in self.asap[v]..=self.alap[v] {
            let a = t + dist * self.ii;
            if a >= lo && a <= hi {
                arrival[(a - lo) as usize] = true;
            }
        }
        let cand_v = {
            let mut set = vec![false; self.fab.num_pes];
            for &q in &self.cands[v] {
                set[q] = true;
            }
            set
        };

        let idx = |c: u32, unit: usize, width: usize| (c - lo) as usize * width + unit;
        for c in lo..=hi {
            // Location variables and their support clauses.
            for p in 0..self.fab.num_pes {
                if !reach(p, c) {
                    continue;
                }
                // Wire: grounded at departure or fed by a link hop.
                let ground = self.ground_var(u, p, c);
                let mut support: Vec<Lit> = Vec::new();
                if let Some(x) = ground {
                    support.push(Lit::positive(x));
                }
                if c > lo {
                    for &li in &self.fab.links_into[p] {
                        if let Some(lv) = tab.lu[idx(c - 1, li, num_links)] {
                            support.push(Lit::positive(lv));
                        }
                    }
                }
                if !support.is_empty() {
                    let at = self.solver.new_var();
                    tab.at[idx(c, self.fab.wire(p), num_locs)] = Some(at);
                    let mut cl = vec![Lit::negative(at)];
                    cl.extend(support);
                    self.clause(&cl);
                }
                // Registers: fed only by a register use one cycle earlier.
                for r in 0..self.fab.regs {
                    if c == lo {
                        continue;
                    }
                    if let Some(rv) = tab.ru[idx(c - 1, p * self.fab.regs + r, regslots)] {
                        let at = self.solver.new_var();
                        tab.at[idx(c, self.fab.reg(p, r), num_locs)] = Some(at);
                        self.clause(&[Lit::negative(at), Lit::positive(rv)]);
                    }
                }
            }
            // Link-use variables at cycle c: need a live carrier at the
            // source, and either a live step target next cycle or a
            // possible delivery into a consumer candidate this cycle.
            for li in 0..num_links {
                let (_, s, d) = self.fab.links[li];
                let carriers: Vec<Lit> = (0..self.fab.stride)
                    .filter_map(|off| tab.at[idx(c, s * self.fab.stride + off, num_locs)])
                    .map(Lit::positive)
                    .collect();
                if carriers.is_empty() {
                    continue;
                }
                let step_ok = c < hi && reach(d, c + 1);
                let deliv_ok = arrival[(c - lo) as usize] && cand_v[d];
                if !step_ok && !deliv_ok {
                    continue;
                }
                let lv = self.solver.new_var();
                tab.lu[idx(c, li, num_links)] = Some(lv);
                let mut cl = vec![Lit::negative(lv)];
                cl.extend(carriers);
                self.clause(&cl);
                self.register_use(u as u32, c, self.fab.link_entity(li), lv);
            }
            // Register-use variables at cycle c (entering, holding, or
            // transferring — all uniformly "some carrier on this PE").
            if c < hi {
                for p in 0..self.fab.num_pes {
                    if !reach(p, c + 1) {
                        continue;
                    }
                    let carriers: Vec<Lit> = (0..self.fab.stride)
                        .filter_map(|off| tab.at[idx(c, p * self.fab.stride + off, num_locs)])
                        .map(Lit::positive)
                        .collect();
                    if carriers.is_empty() {
                        continue;
                    }
                    for r in 0..self.fab.regs {
                        let rv = self.solver.new_var();
                        tab.ru[idx(c, p * self.fab.regs + r, regslots)] = Some(rv);
                        let mut cl = vec![Lit::negative(rv)];
                        cl.extend(carriers.iter().copied());
                        self.clause(&cl);
                        self.register_use(u as u32, c, self.fab.reg_entity(p, r), rv);
                    }
                }
            }
        }

        // Arrival clause per consumer placement var: the value must sit at
        // the consumer (any carrier) at the arrival cycle, or cross one
        // delivery link into it during that cycle.
        for &(q, t, x) in &self.place[v].clone() {
            let a = t + dist * self.ii;
            let mut cl = vec![Lit::negative(x)];
            if a >= lo && a <= hi {
                for off in 0..self.fab.stride {
                    if let Some(at) = tab.at[idx(a, q * self.fab.stride + off, num_locs)] {
                        cl.push(Lit::positive(at));
                    }
                }
                for &li in &self.fab.links_into[q] {
                    if let Some(lv) = tab.lu[idx(a, li, num_links)] {
                        cl.push(Lit::positive(lv));
                    }
                }
            }
            self.clause(&cl);
        }
        self.edges.push(tab);
    }

    /// Emits the modulo-exclusivity ladders: at most one `(signal, phase)`
    /// key per routing cell and per FU cell — [`Occupancy`]'s overuse rule.
    ///
    /// [`Occupancy`]: rewire_mrrg::Occupancy
    fn encode_exclusivity(&mut self) {
        let route_buckets: Vec<Vec<Lit>> = self.route_buckets.values().cloned().collect();
        for lits in route_buckets {
            self.at_most_one(&lits);
        }
        let fu_buckets: Vec<Vec<Lit>> = self.fu_buckets.values().cloned().collect();
        for lits in fu_buckets {
            self.at_most_one(&lits);
        }
    }

    fn lit_true(&self, var: Option<Var>) -> bool {
        var.is_some_and(|v| self.solver.value(v) == Some(true))
    }

    /// Decodes the satisfying assignment into a complete [`Mapping`],
    /// re-validating it against the real occupancy semantics. `None` means
    /// the model does not decode cleanly (an encoder bug, never silent).
    fn decode(&self) -> Option<Mapping> {
        let mrrg = Mrrg::new(self.cgra, self.ii);
        let mut mapping = Mapping::new(self.dfg, &mrrg);
        for v in self.dfg.node_ids() {
            let &(p, t, _) = self.place[v.index()]
                .iter()
                .find(|&&(_, _, x)| self.solver.value(x) == Some(true))?;
            mapping.place(v, PeId::new(p as u32), t);
        }
        for e in self.dfg.edges() {
            let req = mapping.request_for(self.dfg, e.id())?;
            let (d, a) = (req.depart_cycle, req.arrive_cycle);
            if a < d {
                return None;
            }
            let len = (a - d) as usize;
            if len == 0 && req.src_pe == req.dst_pe {
                mapping.set_route(e.id(), Route::from_parts(req, Vec::new(), 0.0));
                continue;
            }
            let resources = self.walk_route(e.id().index(), e.src().index(), d, a, req.dst_pe)?;
            if resources.len() != len && resources.len() != len + 1 {
                return None;
            }
            let cost = resources
                .iter()
                .map(|r| if r.is_reg() { 0.95 } else { 1.0 })
                .sum();
            mapping.set_route(e.id(), Route::from_parts(req, resources, cost));
        }
        if mapping.validate(self.dfg, self.cgra).is_err() {
            return None;
        }
        Some(mapping)
    }

    /// Backward walk from the arrival to the departure ground, collecting
    /// the consumed cells in forward order.
    fn walk_route(&self, ei: usize, u: usize, d: u32, a: u32, dst: PeId) -> Option<Vec<Resource>> {
        let tab = &self.edges[ei];
        let num_locs = self.fab.num_locs;
        let num_links = self.fab.links.len();
        let regslots = self.fab.num_pes * self.fab.regs;
        let idx = |c: u32, unit: usize, width: usize| (c - tab.lo) as usize * width + unit;
        let live_loc_at = |c: u32, p: usize| -> Option<usize> {
            (0..self.fab.stride)
                .map(|off| p * self.fab.stride + off)
                .find(|&loc| self.lit_true(tab.at[idx(c, loc, num_locs)]))
        };
        let slot = |c: u32| c % self.ii;

        let mut rev: Vec<Resource> = Vec::new();
        let q = dst.index();
        // Arrival: local carrier at the consumer, or one delivery hop.
        let mut loc = match live_loc_at(a, q) {
            Some(loc) => loc,
            None => {
                let &li = self.fab.links_into[q]
                    .iter()
                    .find(|&&li| self.lit_true(tab.lu[idx(a, li, num_links)]))?;
                let (id, s, _) = self.fab.links[li];
                rev.push(Resource::Link {
                    link: id,
                    slot: slot(a),
                });
                live_loc_at(a, s)?
            }
        };
        let mut c = a;
        loop {
            let p = loc / self.fab.stride;
            let off = loc % self.fab.stride;
            if off == 0 {
                // Wire: grounded at the departure placement?
                if self.lit_true(self.ground_var(u, p, c)) {
                    break;
                }
                if c <= tab.lo {
                    return None;
                }
                let &li = self.fab.links_into[p]
                    .iter()
                    .find(|&&li| self.lit_true(tab.lu[idx(c - 1, li, num_links)]))?;
                let (id, s, _) = self.fab.links[li];
                rev.push(Resource::Link {
                    link: id,
                    slot: slot(c - 1),
                });
                loc = live_loc_at(c - 1, s)?;
            } else {
                let r = off - 1;
                if c <= tab.lo
                    || !self.lit_true(tab.ru[idx(c - 1, p * self.fab.regs + r, regslots)])
                {
                    return None;
                }
                rev.push(Resource::Reg {
                    pe: PeId::new(p as u32),
                    reg: r as u8,
                    slot: slot(c - 1),
                });
                loc = live_loc_at(c - 1, p)?;
            }
            c -= 1;
        }
        if c != d {
            return None;
        }
        rev.reverse();
        Some(rev)
    }
}

/// Modulo-constrained ALAP: the latest time of every node such that all
/// dependence constraints hold with every node at or below `horizon`.
/// Entries may go negative when the horizon is too tight — the caller
/// compares against ASAP. `None` only on non-convergence (cannot happen
/// when the ASAP schedule exists).
fn schedule_alap(dfg: &Dfg, ii: u32, horizon: u32) -> Option<Vec<i64>> {
    let n = dfg.num_nodes();
    let mut t = vec![i64::from(horizon); n];
    for _ in 0..=n {
        let mut changed = false;
        for e in dfg.edges() {
            let bound = t[e.dst().index()] - 1 + i64::from(e.distance() * ii);
            if t[e.src().index()] > bound {
                t[e.src().index()] = bound;
                changed = true;
            }
        }
        if !changed {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::{presets, CgraBuilder, OpKind};

    fn chain(n: usize) -> Dfg {
        let mut g = Dfg::new("chain");
        let mut prev = g.add_node("n0", OpKind::Add);
        for i in 1..n {
            let v = g.add_node(format!("n{i}"), OpKind::Add);
            g.add_edge(prev, v, 0).unwrap();
            prev = v;
        }
        g
    }

    /// A hub with two leaves: three connected nodes, so on a fabric whose
    /// islands hold only two PEs each the star cannot map at II 1 (three
    /// FU slots are needed inside one island), while II 2 offers four
    /// slots per island.
    fn star3() -> Dfg {
        let mut g = Dfg::new("star3");
        let hub = g.add_node("hub", OpKind::Add);
        for i in 0..2 {
            let leaf = g.add_node(format!("l{i}"), OpKind::Add);
            g.add_edge(hub, leaf, 0).unwrap();
        }
        g
    }

    fn island_fabric() -> Cgra {
        // Rows 0 and 1 form two disconnected two-PE islands.
        CgraBuilder::new(2, 2).cut_row(1).build().unwrap()
    }

    #[test]
    fn chain_is_proven_optimal_at_ii_1() {
        let cgra = presets::paper_4x4_r4();
        let dfg = chain(4);
        let out = ExactSatMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert_eq!(out.stats.achieved_ii, Some(1));
        assert!(out.stats.proven_optimal());
        assert_eq!(out.stats.verdict_at(1), Some(AttemptVerdict::Optimal));
        assert!(out.mapping.unwrap().is_valid(&dfg, &cgra));
    }

    #[test]
    fn island_star_proves_ii_1_infeasible() {
        let cgra = island_fabric();
        let dfg = star3();
        let out = ExactSatMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert_eq!(out.stats.achieved_ii, Some(2), "{}", out.stats);
        assert_eq!(out.stats.proven_infeasible_iis(), vec![1]);
        assert!(out.stats.proven_optimal());
        let mapping = out.mapping.unwrap();
        assert!(mapping.is_valid(&dfg, &cgra));
        // Verify the decoded schedule also replays through the simulator
        // contract: every route passed `Mapping::validate`, so occupancy,
        // timing and endpoints all line up.
        assert_eq!(mapping.ii(), 2);
    }

    #[test]
    fn accumulator_is_optimal_at_recmii() {
        let cgra = presets::paper_4x4_r4();
        let mut g = Dfg::new("acc");
        let phi = g.add_node("phi", OpKind::Phi);
        let c = g.add_node("c", OpKind::Const);
        let add = g.add_node("add", OpKind::Add);
        g.add_edge(phi, add, 0).unwrap();
        g.add_edge(c, add, 0).unwrap();
        g.add_edge(add, phi, 1).unwrap();
        let out = ExactSatMapper::new().map(&g, &cgra, &MapLimits::fast());
        assert_eq!(out.stats.achieved_ii, Some(2));
        assert!(out.stats.proven_optimal(), "MII itself is the proof floor");
    }

    #[test]
    fn self_edge_round_trip_decodes() {
        let cgra = presets::paper_4x4_r4();
        let mut g = Dfg::new("self");
        let a = g.add_node("a", OpKind::Add);
        g.add_edge(a, a, 1).unwrap();
        let out = ExactSatMapper::new().map(&g, &cgra, &MapLimits::fast());
        assert_eq!(out.stats.achieved_ii, Some(1));
        assert!(out.mapping.unwrap().is_valid(&g, &cgra));
    }

    #[test]
    fn refuses_oversized_instances() {
        let cgra = presets::paper_4x4_r4();
        let dfg = chain(64);
        let out = ExactSatMapper::new().map(&dfg, &cgra, &MapLimits::fast());
        assert!(out.mapping.is_none());
        assert_eq!(out.stats.iis_explored, 0);
        assert!(out.stats.verdicts.is_empty());
    }

    #[test]
    fn tiny_budget_degrades_to_unknown_not_wrong() {
        let cgra = island_fabric();
        let dfg = star3();
        let out =
            ExactSatMapper::new()
                .with_conflict_budget(1)
                .map(&dfg, &cgra, &MapLimits::fast());
        // Whatever happened, no optimality claim may survive a truncated
        // sweep, and any infeasibility verdict must agree with the full
        // run (II 1 is genuinely infeasible).
        assert!(!out.stats.proven_optimal() || out.stats.verdict_at(1).is_some());
        for ii in out.stats.proven_infeasible_iis() {
            assert_eq!(ii, 1, "only II 1 is infeasible for this instance");
        }
    }

    #[test]
    fn verdicts_are_deterministic_across_runs() {
        let cgra = island_fabric();
        let dfg = star3();
        let run = || {
            let out = ExactSatMapper::new().map(&dfg, &cgra, &MapLimits::fast());
            let placements: Vec<_> = dfg
                .node_ids()
                .filter_map(|v| out.mapping.as_ref().unwrap().placement(v))
                .collect();
            (
                out.stats.achieved_ii,
                out.stats.verdicts.clone(),
                out.stats.remap_iterations,
                placements,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn small_chains_are_proven_optimal_at_their_mii() {
        let cgra = presets::paper_4x4_r1();
        for n in [2usize, 4, 6] {
            let dfg = chain(n);
            let out = ExactSatMapper::new().map(&dfg, &cgra, &MapLimits::fast());
            assert_eq!(out.stats.achieved_ii, dfg.mii(&cgra), "{n}-node chain");
            assert!(out.stats.proven_optimal(), "{n}-node chain");
            assert!(out.mapping.unwrap().is_valid(&dfg, &cgra), "{n}-node chain");
        }
    }
}
