(** A design point: one unroll-factor vector, the code it generates, and
    the behavioral synthesis estimates for it. Evaluating a point is the
    [Generate; Synthesize; Balance] sequence of the paper's Figure 2.

    Since the layered-engine refactor this module is a thin view over
    {!Engine}: a [context] bundles an evaluation environment
    ({!Engine.Backend.env}), a pluggable backend ({!Engine.Backend.t})
    and a unified store ({!Engine.Store.t} — point cache, tri-schedule
    memo and counters with one fork/absorb lifecycle and a persistent
    on-disk form). Every evaluation anywhere in the system goes through
    [Engine.Backend.evaluate]; nothing here talks to the estimator
    directly. *)

open Ir

type config = Engine.Store.config = {
  vector : (string * int) list;  (** unroll factor per spine loop *)
  tile : (string * int) option;  (** strip-mine this loop to this tile *)
  scalar_replace : bool;
  peel : bool;
  licm : bool;
}

type point = Engine.Store.point = {
  config : config;  (** the normalized configuration this point is *)
  vector : (string * int) list;
      (** [config.vector], kept as a field for vector-only call sites *)
  kernel : Ast.kernel;  (** transformed code *)
  estimate : Hls.Estimate.t;
  report : Transform.Scalar_replace.report;
}

type stats = Engine.Store.stats = {
  mutable evaluations : int;
      (** cache misses: full [Generate; Synthesize] runs *)
  mutable cache_hits : int;
  mutable quick_estimates : int;
      (** tier-1 analytical lower bounds computed ({!quick}) *)
  mutable pruned : int;
      (** full syntheses skipped because a lower bound disqualified
          the point (over capacity or provably behind the incumbent) *)
  mutable transform_seconds : float;  (** wall time in the transform pipeline *)
  mutable estimate_seconds : float;  (** wall time in the synthesis estimator *)
  mutable dfg_seconds : float;  (** estimator time building DFGs *)
  mutable schedule_seconds : float;
      (** estimator time in the tri-mode scheduler (memo hits pay only
          the fingerprint) *)
  mutable layout_seconds : float;  (** estimator time in the data layout *)
  mutable sched_memo_hits : int;
      (** blocks whose tri-schedule was served content-addressed from
          the fingerprint memo instead of being scheduled *)
  mutable region_memo_hits : int;
      (** always 0: the region-level schedule memo that counted here is
          gone; the field stays only because the benchmark harness
          ([dsebench/layers.ml]) still reads it *)
  mutable delta_reuses : int;
      (** always 0: the delta unroll cache that counted here is gone;
          kept only because the benchmark harness still reads it *)
  mutable checked_points : int;
      (** design points whose pipeline run was translation-validated
          ([--verify]) *)
  mutable verify_violations : int;
      (** error-severity validation findings across checked points *)
  mutable flow_builds : int;
      (** flow graphs the verified path's dataflow checks constructed *)
  mutable flow_solves : int;  (** dataflow fixpoint solves run *)
  mutable flow_seconds : float;
      (** wall time building and solving flow graphs *)
}

let fresh_stats = Engine.Store.fresh_stats

type context = {
  source : Ast.kernel;  (** the input loop nest *)
  profile : Hls.Estimate.profile;
  capacity : int;  (** device slices *)
  spine : Ast.loop list;
  spine_divisors : (string * int list) list;
      (** ascending divisors of each spine loop's trip count *)
  pipeline : Transform.Pipeline.options;  (** base options (vector is set per point) *)
  backend : Engine.Backend.t;
      (** the fidelity level evaluations run at; the default is the
          two-tier composition [quick_gate full] *)
  store : Engine.Store.t;
      (** point cache + tri-schedule memo + counters. Updating
          [pipeline] or [profile] with a record update invalidates the
          cached points — build a fresh context instead (updating
          [capacity] is fine for the [full] backends: it does not enter
          behavioral evaluation). *)
  tile_facts : (string * int) option -> Engine.Backend.tile_facts;
      (** tier-1 pre-estimator facts and applied unroll loops per
          tile candidate, memoized and mutex-protected; both come from
          the strip-mined source, keeping the quick bounds admissible
          under tiling *)
  verify : bool;
      (** translation-validate every uncached evaluation
          ({!Check.Validate}); selections are bit-identical, violations
          are counted in [stats] *)
  stats : stats;  (** alias of [store.stats] — kept as a field so the
          historical [ctx.stats.evaluations] accesses keep working *)
}

(** The engine view of a context: same fields, minus the mutable store.
    Cheap (one record allocation); the tile-facts memo is shared,
    not rebuilt. *)
let env (ctx : context) : Engine.Backend.env =
  {
    Engine.Backend.source = ctx.source;
    profile = ctx.profile;
    capacity = ctx.capacity;
    spine = ctx.spine;
    spine_divisors = ctx.spine_divisors;
    pipeline = ctx.pipeline;
    tile_facts = ctx.tile_facts;
    verify = ctx.verify;
  }

let context ?pipeline ?profile ?verify ?capacity
    ?(backend = Engine.Backend.default) ?store (source : Ast.kernel) =
  let store =
    match store with Some s -> s | None -> Engine.Store.create ()
  in
  let env =
    Engine.Backend.make_env ?pipeline ?profile ?verify ?capacity source
  in
  {
    source = env.Engine.Backend.source;
    profile = env.Engine.Backend.profile;
    capacity = env.Engine.Backend.capacity;
    spine = env.Engine.Backend.spine;
    spine_divisors = env.Engine.Backend.spine_divisors;
    pipeline = env.Engine.Backend.pipeline;
    backend;
    store;
    tile_facts = env.Engine.Backend.tile_facts;
    verify = env.Engine.Backend.verify;
    stats = store.Engine.Store.stats;
  }

let normalize_vector (ctx : context) (v : (string * int) list) :
    (string * int) list =
  Engine.Backend.normalize_vector (env ctx) v

let product v = List.fold_left (fun acc (_, u) -> acc * u) 1 v

(** Equality of the designs two vectors denote: loops missing from either
    side count as factor 1, so a partial vector compares equal to its
    spine-normalized form (and vectors of different lengths never raise). *)
let vector_equal a b =
  let factor v i = Option.value ~default:1 (List.assoc_opt i v) in
  let indices =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.for_all (fun i -> factor a i = factor b i) indices

(** Unroll factor vector corresponding to no unrolling (the baseline of
    Table 2: all other transformations still apply). *)
let ubase (ctx : context) = List.map (fun (l : Ast.loop) -> (l.index, 1)) ctx.spine

(** Full unrolling of every loop. *)
let umax (ctx : context) =
  List.map (fun (l : Ast.loop) -> (l.index, Ast.loop_trip l)) ctx.spine

(** The backend's synthesis, bypassing the point cache (neither read nor
    written). Still bumps the store's counters. *)
let evaluate_uncached (ctx : context) (v : (string * int) list) : point =
  ctx.backend.Engine.Backend.synthesize (env ctx) ctx.store
    (Engine.Backend.base_config (env ctx) (normalize_vector ctx v))

(** Cached [Generate; Synthesize] through the context's store: vectors
    are normalized before the cache lookup, so any two spellings of the
    same design share one synthesis run. *)
let evaluate (ctx : context) (v : (string * int) list) : point =
  Engine.Backend.evaluate (env ctx) ctx.backend ctx.store v

(* ------------------------------------------------------------------ *)
(* Joint configurations *)

(** The context's base configuration at unroll vector [v]: tile and
    toggles from the base pipeline options — what the vector-only entry
    points evaluate. *)
let base_config (ctx : context) (v : (string * int) list) : config =
  Engine.Backend.base_config (env ctx) v

(** Canonical cache key of a configuration (see
    {!Engine.Backend.normalize_config}). *)
let normalize_config (ctx : context) (c : config) : config =
  Engine.Backend.normalize_config (env ctx) c

(** Equality of the designs two configurations denote: vectors compare
    via {!vector_equal}, the other knobs structurally. *)
let config_equal (a : config) (b : config) =
  vector_equal a.vector b.vector
  && a.tile = b.tile
  && a.scalar_replace = b.scalar_replace
  && a.peel = b.peel && a.licm = b.licm

(** Cached evaluation of one joint configuration (normalized before the
    cache lookup, like {!evaluate}). *)
let evaluate_config (ctx : context) (c : config) : point =
  Engine.Backend.evaluate_config (env ctx) ctx.backend ctx.store c

(** The backend's tier-1 bound for a joint configuration. *)
let quick_config (ctx : context) (c : config) : Hls.Quick.t option =
  ctx.backend.Engine.Backend.bound (env ctx) ctx.store c

(* ------------------------------------------------------------------ *)
(* Tier-1 analytical bounds *)

(** The backend's tier-1 bound for the design point at [v] — admissible
    lower bounds without generating or estimating anything. [None] when
    the backend has no bound tier (plain [full]/[lowlevel]) or the
    pre-estimator does not apply (tiling pipeline); callers must then
    synthesize instead of pruning. *)
let quick (ctx : context) (v : (string * int) list) : Hls.Quick.t option =
  ctx.backend.Engine.Backend.bound (env ctx) ctx.store
    (Engine.Backend.base_config (env ctx) v)

(** Record that one full synthesis was skipped on tier-1 evidence. *)
let note_pruned (ctx : context) =
  ctx.stats.pruned <- ctx.stats.pruned + 1

(* ------------------------------------------------------------------ *)
(* Store and statistics plumbing *)

let cache_size (ctx : context) = Engine.Store.size ctx.store

(** Distinct block shapes whose tri-schedule is memoized. *)
let sched_memo_size (ctx : context) = Engine.Store.sched_memo_size ctx.store

(** Immutable copy of the context's counters (for before/after deltas). *)
let stats_snapshot (ctx : context) : stats = Engine.Store.stats_copy ctx.stats

let stats_diff = Engine.Store.stats_diff

(** A private copy of [ctx] for one domain of a parallel sweep: shares
    the immutable fields, snapshots the store's caches, and starts fresh
    counters — no mutable state, counters included, is ever shared
    across domains. Never share one mutable context across domains —
    fork per domain and [absorb] the forks back on the joining side. *)
let fork (ctx : context) : context =
  (* The tile-facts memo is mutex-protected and domain-safe, but
     pre-warm the base pipeline's entry here so sweep domains start
     from a hit instead of contending on the first computation. *)
  ignore (ctx.tile_facts ctx.pipeline.Transform.Pipeline.tile);
  let store = Engine.Store.fork ctx.store in
  { ctx with store; stats = store.Engine.Store.stats }

(** Merge a fork's cache entries, tri-schedule memo and counters back
    into [into] (entries already present in [into] are kept as-is). *)
let absorb ~(into : context) (forked : context) : unit =
  Engine.Store.absorb ~into:into.store forked.store

let balance (p : point) = p.estimate.Hls.Estimate.balance
let space (p : point) = p.estimate.Hls.Estimate.slices
let cycles (p : point) = p.estimate.Hls.Estimate.cycles
let fits (ctx : context) (p : point) = space p <= ctx.capacity

let pp_config = Transform.Pipeline.pp_config
let config_to_string = Transform.Pipeline.config_to_string

let pp_vector fmt v =
  Format.fprintf fmt "(%s)"
    (String.concat ", " (List.map (fun (i, u) -> Printf.sprintf "%s=%d" i u) v))

let pp_point fmt p =
  Format.fprintf fmt "%a: cycles=%d slices=%d balance=%.3f" pp_vector p.vector
    (cycles p) (space p) (balance p)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "%d synthesized, %d cache hits, %d quick estimates, %d pruned, %d sched \
     memo hits (transform %.1f ms, estimate %.1f ms)"
    s.evaluations s.cache_hits s.quick_estimates s.pruned s.sched_memo_hits
    (1000.0 *. s.transform_seconds)
    (1000.0 *. s.estimate_seconds);
  if s.checked_points > 0 then
    Format.fprintf fmt "; verified %d point(s), %d violation(s)"
      s.checked_points s.verify_violations

(** Per-stage wall-time split of the estimator (the [--profile] view):
    DFG construction, scheduling, data layout, and whatever remains of
    [estimate_seconds] (region walk, area fold). *)
let pp_profile fmt (s : stats) =
  let other =
    Float.max 0.0
      (s.estimate_seconds -. s.dfg_seconds -. s.schedule_seconds
     -. s.layout_seconds)
  in
  Format.fprintf fmt
    "transform %.1f ms; estimate %.1f ms = dfg %.1f + schedule %.1f + layout \
     %.1f + other %.1f; %d tri-schedules served from the fingerprint memo"
    (1000.0 *. s.transform_seconds)
    (1000.0 *. s.estimate_seconds)
    (1000.0 *. s.dfg_seconds)
    (1000.0 *. s.schedule_seconds)
    (1000.0 *. s.layout_seconds)
    (1000.0 *. other) s.sched_memo_hits;
  if s.checked_points > 0 then
    Format.fprintf fmt
      "; translation validation: %d point(s) checked, %d violation(s)"
      s.checked_points s.verify_violations;
  if s.flow_builds > 0 then
    Format.fprintf fmt
      "; flowgraph: %d build(s), %d solve(s) in %.1f ms"
      s.flow_builds s.flow_solves
      (1000.0 *. s.flow_seconds)
