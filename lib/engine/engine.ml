(** The layered evaluation engine — the one way design points get
    evaluated anywhere in the system.

    {v
        Backend   fidelity levels as values: full, lowlevel,
           |      quick_gate composition (two-tier engine)
         Store    point cache + tri-schedule memo + counters,
           |      fork/absorb for domains
        Persist   config-hash-addressed on-disk form of a store
           |
          Hls     scheduling, estimation, P&R degradation
    v}

    [Dse] (the search, the sweep and the batched session driver
    [Dse.Driver]) sits on top and never calls the estimator directly:
    every evaluation goes [Backend.evaluate] → [Store] → synthesis on
    miss. *)

module Util = Util
module Store = Store
module Backend = Backend
module Persist = Persist

(** One kernel of a batched session ([Dse.Driver.run_many]). *)
type task = { name : string; kernel : Ir.Ast.kernel }
