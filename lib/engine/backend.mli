(** Pluggable estimator backends — the fidelity levels at which a design
    point can be evaluated, as first-class values, with the two-tier
    gating expressed as backend composition ({!quick_gate}) instead of
    inline logic in the search and the sweep. *)

open Ir

(** What the evaluation of a tile candidate needs from the strip-mined
    source, computed once per tile. *)
type tile_facts = {
  quick : Hls.Quick.facts;
      (** tier-1 pre-estimator facts of the strip-mined source, keeping
          the quick bounds admissible under tiling *)
  unrolled : string list;
      (** the loops whose unroll factors the pipeline applies to the
          strip-mined source ({!Transform.Unroll.effective}): every
          spine loop when jamming is legal, else only the innermost *)
}

type env = {
  source : Ast.kernel;  (** the input loop nest *)
  profile : Hls.Estimate.profile;
  capacity : int;  (** device slices *)
  spine : Ast.loop list;
  spine_divisors : (string * int list) list;
      (** ascending divisors of each spine loop's trip count *)
  pipeline : Transform.Pipeline.options;
      (** base options (the searched knobs are set per point) *)
  tile_facts : (string * int) option -> tile_facts;
      (** facts per (normalized) tile candidate, [None] for the
          untiled source; memoized and mutex-protected (safe to share
          across sweep domains) *)
  verify : bool;
      (** translation-validate every uncached evaluation *)
}

val make_env :
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?capacity:int ->
  Ast.kernel ->
  env

(** Cover every spine loop and clamp factors to divisors of the trip
    counts — the space the search explores. *)
val normalize_vector : env -> (string * int) list -> (string * int) list

(** The env's base configuration at the given unroll vector: tile and
    toggles taken from the base pipeline options. *)
val base_config : env -> (string * int) list -> Store.config

(** Canonical cache key for a configuration: the vector is
    {!normalize_vector}d, a spine tile is clamped to the divisor the
    strip-mine would use (and dropped when that makes it a no-op), and
    the unroll factor of a tiled loop is forced to 1 (the strip-mine
    renames the loop, so the unroller would ignore the entry), and
    under a tile the other factors are reduced to those
    {!Transform.Unroll.effective} applies to the strip-mined source —
    when the strip-mined subscripts defeat the jam test only the
    innermost loop unrolls, so outer factors would name designs that
    were never built. A tile index naming no spine loop is kept
    verbatim — synthesizing such a configuration fails loudly in the
    pipeline. *)
val normalize_config : env -> Store.config -> Store.config

type t = {
  name : string;
      (** stable identifier; part of the persistent store key, so two
          backends never share cached points *)
  bound : env -> Store.t -> Store.config -> Hls.Quick.t option;
      (** admissible lower bounds for a configuration, or [None] when
          this backend offers no tier-1 gate *)
  synthesize : env -> Store.t -> Store.config -> Store.point;
      (** full evaluation of one configuration, bypassing the point
          cache (neither read nor written); bumps the store's counters *)
}

(** The paper's [Generate; Synthesize]: transform pipeline, DFG, fused
    tri-mode schedule, data layout. No tier-1 bound. *)
val full : t

(** {!full} composed with the P&R degradation model: the stored
    estimate carries post-route area and achieved-clock time. Cycle
    counts and balance are unchanged (Section 6.4). *)
val lowlevel : t

(** [quick_gate b] is [b] with the analytical pre-estimator
    ({!Hls.Quick}) as its tier-1 bound — the two-tier engine as backend
    composition. The bounds are admissible, so gating on them never
    changes a selection, only the set of synthesized points. *)
val quick_gate : t -> t

(** [quick_gate full] — the default of the CLI, bench and tests. *)
val default : t

val to_string : t -> string

(** Parse a backend name: [full], [quick+full] (aliases [tiered],
    [default]), [lowlevel], [quick+lowlevel]. *)
val of_string : string -> (t, string) result

val known_names : string list

(** Cached [Generate; Synthesize] through the store: configurations are
    normalized before the cache lookup, so any two spellings of the
    same design share one synthesis run. *)
val evaluate_config : env -> t -> Store.t -> Store.config -> Store.point

(** {!evaluate_config} at the env's base configuration — the historical
    vector-only entry point. *)
val evaluate : env -> t -> Store.t -> (string * int) list -> Store.point
