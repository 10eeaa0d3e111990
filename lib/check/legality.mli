(** Per-transform legality predicates, checked before the rewrite:
    unroll-and-jam dependence preservation, scalar-replacement reuse
    preconditions, tiling/peeling applicability.

    The jam and replaceability predicates consult flow-graph dataflow
    facts ({!Analysis.Flowgraph}) alongside the dependence analysis and
    are strictly stronger than the dependence-only forms, which stay
    exposed as [*_dependence] for cross-validation. *)

open Ir

(** Fusing the unrolled outer iterations preserves every *array*
    dependence (the pre-flowgraph predicate, same as
    {!Transform.Unroll.jam_legal}; blind to scalar recurrences). *)
val jam_unroll_legal_dependence : Ast.kernel -> bool

(** [jam_unroll_legal_dependence] *and* every loop-carried scalar of a
    non-innermost loop is a single-operator commutative/associative
    reduction (anything else would be reordered by fusing the unrolled
    outer iterations). Implies {!jam_unroll_legal_dependence}. *)
val jam_unroll_legal :
  ?graph:Analysis.Flowgraph.t ->
  ?cost:Analysis.Flowgraph.cost ->
  Ast.kernel ->
  bool

(** First scalar whose carried dependence chain unroll-and-jam would
    reorder, as [(loop index, scalar name)]. *)
val scalar_jam_hazard :
  ?cost:Analysis.Flowgraph.cost ->
  Analysis.Flowgraph.t ->
  (string * string) option

(** Every pair of members of the uniformly generated set has a
    consistent (exact or unconstrained) dependence distance (the
    pre-flowgraph predicate). *)
val replaceable_group_dependence : Ast.kernel -> Analysis.Reuse.group -> bool

(** Why a uniformly generated set may not be cached in registers. *)
type replace_verdict =
  | Replaceable
  | Inconsistent_distances
      (** some member pair has no consistent dependence distance *)
  | Foreign_accesses of string
      (** an access to the same array through a different subscript
          pattern reaches the set (reaching-definitions fact); the
          payload describes the direction *)

val replaceable_verdict :
  ?graph:Analysis.Flowgraph.t ->
  ?cost:Analysis.Flowgraph.cost ->
  Ast.kernel ->
  Analysis.Reuse.group ->
  replace_verdict

(** [replaceable_verdict ... = Replaceable]. Implies
    {!replaceable_group_dependence}. *)
val replaceable_group :
  ?graph:Analysis.Flowgraph.t ->
  ?cost:Analysis.Flowgraph.cost ->
  Ast.kernel ->
  Analysis.Reuse.group ->
  bool

(** [index] names a spine loop and [tile] is a proper fraction of its
    trip count. *)
val tiling_applicable : Ast.kernel -> index:string -> tile:int -> bool

(** [index] names a spine loop with at least one iteration. *)
val peeling_applicable : Ast.kernel -> index:string -> bool

(** Pre-enumeration verdict on one joint transform configuration — the
    joint sweep's pruner. *)
type config_verdict =
  | Config_legal
  | Config_redundant of Transform.Pipeline.config
      (** evaluates cleanly but denotes the same design as the carried
          canonical configuration *)
  | Config_illegal of string
      (** force-evaluating it raises [Transform.Pipeline.Stage_error]
          (tile index naming no loop) or silently changes results (a
          jam reordering a non-reduction scalar recurrence) *)

(** Whether the configuration asks for an actual unroll-and-jam: a
    factor above 1 on a non-innermost spine loop. *)
val wants_jam : Ast.kernel -> Transform.Pipeline.config -> bool

(** Verdict for one configuration, before any transform runs. The
    kernel-level half of the jam test (one flow graph included) is
    computed at most once per application to the kernel:
    [let verdict = config_verdict k] shares it across every
    configuration [verdict] is applied to (on one domain). *)
val config_verdict :
  Ast.kernel ->
  Transform.Pipeline.config ->
  config_verdict

(** Diagnostics for the kernel, optionally against the concrete pipeline
    options of a design point (unroll vector, tile request). [graph]
    reuses an already-built flow graph; [cost] accumulates flowgraph
    counters. *)
val check :
  ?graph:Analysis.Flowgraph.t ->
  ?cost:Analysis.Flowgraph.cost ->
  ?options:Transform.Pipeline.options ->
  Ast.kernel ->
  Diag.t list
