(** The unified evaluation store: design-point cache, content-addressed
    tri-schedule memo and evaluation counters as one value with a single
    fork/absorb lifecycle for domain parallelism and a persistent on-disk
    form (see {!Persist}).

    One store serves one estimation configuration (profile, pipeline,
    backend); the caches are exact under a fixed configuration and
    meaningless across two. *)

open Ir

(** The design point's transform configuration — re-export of
    {!Transform.Pipeline.config} and the cache key of the point table.
    Since the joint-space refactor a design point is a full transform
    configuration (unroll vector, tile, scalar-replace/peel/LICM
    toggles), not just an unroll vector. *)
type config = Transform.Pipeline.config = {
  vector : (string * int) list;  (** unroll factor per spine loop *)
  tile : (string * int) option;  (** strip-mine this loop to this tile *)
  scalar_replace : bool;
  peel : bool;
  licm : bool;
}

type point = {
  config : config;  (** the normalized configuration this point is *)
  vector : (string * int) list;
      (** [config.vector], kept as a field for vector-only call sites *)
  kernel : Ast.kernel;  (** transformed code *)
  estimate : Hls.Estimate.t;
  report : Transform.Scalar_replace.report;
}

type stats = {
  mutable evaluations : int;
      (** cache misses: full [Generate; Synthesize] runs *)
  mutable cache_hits : int;
  mutable quick_estimates : int;
      (** tier-1 analytical lower bounds computed *)
  mutable pruned : int;
      (** full syntheses skipped because a lower bound disqualified
          the point *)
  mutable transform_seconds : float;
  mutable estimate_seconds : float;
  mutable dfg_seconds : float;
  mutable schedule_seconds : float;
  mutable layout_seconds : float;
  mutable sched_memo_hits : int;
  mutable region_memo_hits : int;
      (** always 0: the region-level schedule memo that counted here is
          gone; the field stays only because the benchmark harness
          ([dsebench/layers.ml]) still reads it *)
  mutable delta_reuses : int;
      (** always 0: the delta unroll cache that counted here is gone;
          kept only because the benchmark harness still reads it *)
  mutable checked_points : int;
  mutable verify_violations : int;
  mutable flow_builds : int;
      (** flow graphs constructed by the verified path's dataflow checks *)
  mutable flow_solves : int;  (** dataflow fixpoint solves run *)
  mutable flow_seconds : float;
      (** wall time building and solving flow graphs *)
  mutable joint_configs : int;
      (** configurations enumerated by joint sweeps (the joint space
          size, pruned configurations included) *)
  mutable joint_pruned_illegal : int;
      (** joint configurations dropped by the legality pre-pruner *)
  mutable joint_pruned_redundant : int;
      (** joint configurations dropped as duplicates of a canonical
          configuration elsewhere in the space *)
  mutable joint_pruned_bound : int;
      (** joint configurations skipped on tier-1 lower bounds *)
}

val fresh_stats : unit -> stats
val reset_stats : stats -> unit

(** Immutable copy (for before/after deltas). *)
val stats_copy : stats -> stats

(** Add [from]'s counters into [into] — the stats half of {!absorb}. *)
val stats_add : into:stats -> stats -> unit

val stats_diff : before:stats -> after:stats -> stats

type t = {
  points : (config, point) Hashtbl.t;
      (** evaluation memo, keyed on the normalized configuration *)
  sched_memo : Hls.Schedule.memo;
      (** fingerprint-keyed tri-schedule table; physically shared
          between the kernels of a session *)
  stats : stats;
  mutable loaded_points : int;
      (** points warm-loaded from a persistent store at creation *)
}

(** A fresh, empty store. Pass [sched_memo] to share one tri-schedule
    table across several stores (the multi-kernel session does: the
    fingerprints are kernel-agnostic, so one kernel's block shapes warm
    another's). *)
val create : ?sched_memo:Hls.Schedule.memo -> unit -> t

val find : t -> config -> point option
val add : t -> config -> point -> unit
val size : t -> int
val sched_memo_size : t -> int
val iter_points : t -> (config -> point -> unit) -> unit

(** A private copy for one domain of a parallel sweep: snapshots both
    caches and starts fresh counters — no mutable state, counters
    included, is ever shared across domains. *)
val fork : t -> t

(** Merge a fork's cache entries, tri-schedule memo and counters back
    into [into] (entries already present in [into] win). *)
val absorb : into:t -> t -> unit
