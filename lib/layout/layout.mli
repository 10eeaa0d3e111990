(** Custom data layout (Section 4 of the paper): array renaming followed
    by memory mapping.

    {b Array renaming} distributes each array cyclically over a number of
    virtual memories — cyclic in at least one dimension, possibly more —
    and gives every access expression a virtual memory id. For a bank
    shape [(b_1, ..., b_n)], the element at subscripts [(s_1, ..., s_n)]
    lives in bank [(s_1 mod b_1, ..., s_n mod b_n)]. An access's bank is
    usable at schedule time either because it is {e constant} (each
    [b_d] divides the access's per-dimension stride modulus) or via the
    paper's {e steady state} regime (Section 5.2): uniformly generated
    co-scheduled accesses rotate banks in lockstep, so conflicts depend
    only on the constant offsets. Shapes maximise the distinct banks of
    co-scheduled accesses. Non-uniform arrays keep one memory.

    {b Memory mapping} binds (array, virtual id) pairs to physical
    memories in first-read order, round-robin, then writes — the paper's
    read-order-first policy. *)

open Ir
module Access = Analysis.Access

type t = {
  num_memories : int;
  banks : (string * int) list;  (** array -> total virtual banks *)
  shapes : (string * int list) list;  (** array -> per-dimension factors *)
  vids : (int * int) list;  (** access id -> virtual id within its array *)
  phys : ((string * int) * int) list;  (** (array, vid) -> physical memory *)
  vid_tbl : (int, int) Hashtbl.t;
      (** [vids] as a table; {!memory_of} is on the DFG-build hot path *)
  mem_tbl : (string * int, int) Hashtbl.t;  (** [phys] as a table *)
}

(** Per-dimension stride modulus of an access: gcd of
    [coefficient * step] over its enclosing loops. [Some 0] for constant
    subscripts, [None] when non-affine. *)
val dim_modulus : Access.t -> int -> int option

(** Per-dimension constant offset (subscript at the loop lower bounds). *)
val dim_offset : Access.t -> int -> int

(** Virtual id of an access under a bank shape. *)
val vid_of : shape:int list -> Access.t -> int

(** Choose the bank shape of one array given all its accesses. *)
val choose_shape :
  num_memories:int -> Ast.array_decl -> Access.t list -> int list

(** Compute the full layout for a kernel given its collected accesses
    (pass the same [Access.collect] result the scheduler consumes so the
    ids agree). Raises [Invalid_argument] when [num_memories < 1]. *)
val assign : num_memories:int -> Ast.kernel -> Access.t list -> t

(** Physical memory of an access (by id from the shared collection). *)
val memory_of : t -> Access.t -> int

val pp : Format.formatter -> t -> unit
