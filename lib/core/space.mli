(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for every unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    The space size follows the paper's accounting — all integer unroll
    factors for each explorable loop — while the exhaustive sweep
    evaluates the divisor sub-lattice, which contains every distinct
    generated design. The sweep runs on several OCaml 5 domains (see
    [jobs]) with per-domain forks of the evaluation cache merged back on
    join; its result order is deterministic and independent of [jobs]. *)

type sweep_point = { vector : (string * int) list; point : Design.point }

type t = {
  points : sweep_point list;  (** the divisor lattice, evaluated *)
  pruned : int;  (** lattice points skipped on tier-1 lower bounds *)
  total_designs : int;  (** paper-style size: product of trip counts *)
}

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

(** Evaluate the whole lattice. [eligible] defaults to the saturation
    analysis's loops; [max_product] skips points with larger unroll
    products; [jobs] is the number of evaluating domains (default
    {!default_jobs}). The sweep spawns and joins its own domains, each
    evaluating against a {!Design.fork} absorbed back after the join;
    with [jobs <= 1], or fewer than two points per domain, it runs
    inline on the context. The result is the same for every [jobs].

    [prune] (default [false]) switches the sweep to two-tier: tier-1
    lower bounds ({!Design.quick}) are computed for the whole lattice
    first, points are visited in ascending lower-bound order, and a
    point is skipped without synthesis when its bounds prove it cannot
    fit the device or cannot come within 5% (the default slack of
    {!smallest_comparable}) of the best fitting design found so far.
    Admissible: {!best_fitting} and {!smallest_comparable} (at slacks up
    to 5%) select the same designs as the exhaustive sweep; only
    [points] shrinks — skipped points are counted in [pruned] and in
    [Design.stats.pruned]. With [jobs > 1] the pruned *set* may vary
    between runs (domain timing decides which points see the incumbent
    early), the selections never do. When tier 1 does not apply (tiling
    pipelines) the sweep silently falls back to exhaustive evaluation. *)
val sweep :
  ?eligible:string list ->
  ?max_product:int ->
  ?prune:bool ->
  ?jobs:int ->
  Design.context ->
  t

(** Best-performing design that fits the device. *)
val best_fitting : Design.context -> t -> sweep_point option

(** Smallest design within [slack] of the best fitting design's
    performance — the paper's third optimization criterion. *)
val smallest_comparable :
  ?slack:float -> Design.context -> t -> sweep_point option

(** Fraction of the paper-style space a search visited. *)
val fraction_searched : t -> visited:int -> float

(** {2 The joint configuration space}

    Design points promoted from unroll vectors to full transform
    configurations ({!Design.config}): unroll vector x tile option x
    scalar-replacement/peel/LICM toggles, searched jointly. *)

type joint_point = { config : Design.config; point : Design.point }

type joint = {
  points : joint_point list;
      (** the evaluated configurations, in enumeration order *)
  space_size : int;
      (** joint lattice size before any pruning: unroll vectors x tile
          options x toggle combinations *)
  pruned_illegal : int;  (** dropped by the legality pre-pruner *)
  pruned_redundant : int;
      (** dropped as another spelling of a configuration already
          enumerated (canonicalization + dedupe) *)
  pruned_bound : int;  (** skipped on tier-1 lower bounds *)
  total_designs : int;
      (** paper-style accounting over the joint space: all integer
          unroll factors x tile options x toggles *)
}

(** [[4; 8; 16]] — the default tile-size requests of the joint sweep. *)
val default_tile_candidates : int list

(** The tile options the joint sweep enumerates over the context's spine
    for the requested sizes: [None], plus each size clamped to the
    divisor the strip-mine would use on every loop it properly splits. *)
val joint_tile_options :
  Design.context -> candidates:int list -> (string * int) option list

(** Sweep the joint configuration space. Enumeration runs the full
    product (counted in [space_size]); each configuration then passes
    the legality pre-pruner ({!Check.Legality.config_verdict}, one
    shared flow graph of the source — illegal and redundant
    configurations are dropped before any transform runs) and canonical
    dedupe. Below [exhaustive_below] surviving configurations (default
    64) every survivor is evaluated in enumeration order; above it the
    sweep turns best-first — ascending tier-1 cycle bounds, skipping
    configurations whose bounds prove they cannot beat the incumbent or
    fit the device (admissible: the selection matches the exhaustive
    sweep's). Sequential; counters land in the context's [joint_*]
    stats. *)
val sweep_joint :
  ?eligible:string list ->
  ?max_product:int ->
  ?tile_candidates:int list ->
  ?exhaustive_below:int ->
  Design.context ->
  joint

(** Best configuration of the joint space: fewest cycles among the
    fitting points, ties to the smaller design, then to enumeration
    order (which puts the unroll-only sub-space first). *)
val joint_best : Design.context -> joint -> joint_point option
