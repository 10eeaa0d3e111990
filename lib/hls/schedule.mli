(** As-Soon-As-Possible scheduling of one block's DFG under memory-port
    and clock-period constraints — the estimator's stand-in for Monet's
    scheduler (the paper names Monet's algorithm ASAP, Section 5.2).

    Memory operations issue at cycle boundaries, at most one per memory
    per occupancy window. Two relaxed modes serve the balance metric:
    [`Mem_only] ignores computation (the rate at which the memories could
    supply data), [`Comp_only] ignores memory constraints (the rate at
    which the datapath could consume it). *)

type mode = [ `Joint | `Mem_only | `Comp_only ]

type profile = {
  device : Device.t;
  mem : Memory_model.t;
  chaining : bool;
      (** allow dependent operators to share a clock cycle when their
          delays fit the period. Monet-generation tools scheduled one
          operation level per control step, so the paper-faithful default
          used throughout is [false]. *)
}

type result = {
  cycles : int;
  bits_moved : int;
  usage : ((Op_model.op_class * int) * int) list;
      (** operator class/width-bucket -> max per-cycle concurrency: the
          allocation a behavioral-synthesis binder would need *)
  reads : int;
  writes : int;
}

val run : ?mode:mode -> profile -> Dfg.t -> result

type tri = { joint : result; mem_only : result; comp_only : result }

val run_tri : profile -> Dfg.t -> tri
(** All three schedules of one graph in a single walk over the node
    array: the node kind is matched and the operator delay looked up
    once per node, then each mode advances on its own state. Shares the
    per-node scheduling helpers with {!run}, so
    [run_tri p g = {joint = run ~mode:`Joint p g;
                    mem_only = run ~mode:`Mem_only p g;
                    comp_only = run ~mode:`Comp_only p g}]
    exactly — the estimator calls this once per block instead of [run]
    three times. *)

(** Content-addressed tri-schedule table keyed on {!Dfg.fingerprint}:
    whole blocks map to their {!tri} records. Because the fingerprint is
    injective on the schedule-relevant projection of a graph and
    {!run_tri} reads nothing else, the table is exact: a hit returns
    bit-identically what a fresh run would compute. One table must only
    ever serve one {!profile} (the owning context fixes it); use
    {!memo_copy}/{!memo_absorb} to fork a private copy per domain and
    merge it back — never share a table across domains. *)
type memo

val memo_create : unit -> memo
val memo_copy : memo -> memo

(** Number of distinct block shapes scheduled so far. *)
val memo_size : memo -> int

(** Merge a fork's entries into [into] (existing entries win). *)
val memo_absorb : into:memo -> memo -> unit

(** Memoized {!run_tri}; the flag is [true] when the result was served
    from the table (nothing scheduled). *)
val run_tri_memo : memo -> profile -> Dfg.t -> tri * bool
