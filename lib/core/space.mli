(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for every unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    One enumeration serves both sweeps: unroll vectors x tile options x
    scalar-replacement/peel/LICM toggles ({!Design.config}), then the
    legality pre-pruner ({!Check.Legality.config_verdict}, one shared
    flow graph of the source), then canonical dedupe
    ({!Design.normalize_config}). {!sweep} is the base slice — every
    divisor vector at the context's own tile and toggles; {!sweep_joint}
    takes every tile option and toggle combination.

    The space size follows the paper's accounting — all integer unroll
    factors for each explorable loop — while the sweeps evaluate the
    divisor sub-lattice, which contains every distinct generated design.
    Both run one worker loop on several OCaml 5 domains (see [jobs])
    with per-domain forks of the evaluation cache merged back on join;
    the result order is the enumeration order whatever [jobs] is. *)

type sweep_point = { config : Design.config; point : Design.point }

type joint_point = sweep_point

type t = {
  points : sweep_point list;
      (** the evaluated configurations, in enumeration order *)
  space_size : int;
      (** configurations enumerated before any pruning: unroll vectors x
          tile options x toggle combinations *)
  pruned_illegal : int;  (** dropped by the legality pre-pruner *)
  pruned_redundant : int;
      (** dropped as another spelling of a configuration already
          enumerated (canonicalization + dedupe) *)
  pruned_bound : int;  (** skipped on tier-1 lower bounds *)
  total_designs : int;
      (** paper-style accounting: all integer unroll factors x tile
          options x toggle combinations *)
}

type joint = t

(** All divisor vectors over the explorable loops with unroll product at
    most [max_product] (default unbounded). The bound is enforced during
    enumeration, so deep nests never materialize the full cross-product. *)
val divisor_vectors :
  ?max_product:int ->
  Design.context ->
  eligible:string list ->
  (string * int) list list

(** Number of domains a sweep uses when [jobs] is not given: one per
    recommended domain minus the joining domain, capped at 8. *)
val default_jobs : unit -> int

(** The unroll sweep: the divisor vectors over the saturation analysis's
    loops, with unroll product at most [max_product], at the base
    pipeline's tile and toggles. [jobs] is the number of evaluating
    domains (default {!default_jobs}); with [jobs <= 1], or fewer than
    two configurations per domain, the sweep runs inline on the context.

    [prune] (default [false]) switches the sweep to two-tier: tier-1
    lower bounds ({!Design.quick_config}) are computed for every
    configuration first, configurations are visited in ascending
    lower-bound order, and one is skipped without synthesis when its
    bounds prove it cannot fit the device or cannot come within 5% (the
    default slack of {!smallest_comparable}) of the best fitting design
    found so far. A configuration without a bound (a backend with no
    bound tier) is never skipped. Admissible: {!best_fitting} and
    {!smallest_comparable} (at slacks up to 5%) select the same designs
    as the exhaustive sweep; only [points] shrinks — skipped
    configurations are counted in [pruned_bound] and in
    [Design.stats.pruned]. With [jobs > 1] the pruned *set* may vary
    between runs (domain timing decides which configurations see the
    incumbent early), the selections never do. *)
val sweep :
  ?max_product:int -> ?prune:bool -> ?jobs:int -> Design.context -> t

(** Best fitting design: fewest cycles, ties to the smaller design, then
    to enumeration order (which, in the joint space, puts the unroll-only
    sub-space first). *)
val best_fitting : Design.context -> t -> sweep_point option

(** Smallest design within [slack] of the best fitting design's
    performance — the paper's third optimization criterion. *)
val smallest_comparable :
  ?slack:float -> Design.context -> t -> sweep_point option

(** Fraction of the paper-style space a search visited. *)
val fraction_searched : t -> visited:int -> float

(** {2 The joint configuration space} *)

(** [[4; 8; 16]] — the default tile-size requests of the joint sweep. *)
val default_tile_candidates : int list

(** The tile options the joint sweep enumerates over the context's spine
    for the requested sizes: [None], plus each size clamped to the
    divisor the strip-mine would use on every loop it properly splits. *)
val joint_tile_options :
  Design.context -> candidates:int list -> (string * int) option list

(** The joint sweep: the same enumeration and worker loop as {!sweep},
    over every tile option and all eight toggle combinations (the base
    pipeline's first), always pruned on tier-1 bounds. [jobs] defaults
    to 1, unlike {!sweep}'s: on one domain the evaluated points and the
    [pruned_bound] count are deterministic. With [jobs > 1] the
    selections stay the same, but which configurations are bound-pruned
    (so [points] and [pruned_bound]) may vary between runs. *)
val sweep_joint :
  ?max_product:int ->
  ?tile_candidates:int list ->
  ?jobs:int ->
  Design.context ->
  joint

(** {!best_fitting}. *)
val joint_best : Design.context -> joint -> joint_point option
