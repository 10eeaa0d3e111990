(** The batched session driver: the Figure-2 search over several
    kernels. One call explores a batch of kernels over one shared
    tri-schedule memo and (optionally) one persistent cache directory; a
    warm second run performs zero full syntheses and selects
    bit-identical designs. *)

type outcome = {
  task : Engine.task;
  search : Search.result;
  baseline : Design.point;  (** the no-unrolling design ([ubase]) *)
  ctx : Design.context;  (** post-run context (store, stats, capacity) *)
  loaded_points : int;  (** points warm-loaded from the persistent store *)
  stats : Design.stats;  (** this kernel's counters, baseline included *)
  wall_seconds : float;
}

type summary = {
  outcomes : outcome list;
  total : Design.stats;  (** sum over all kernels *)
  loaded_memo_shapes : int;
      (** tri-schedules warm-loaded from the persistent store *)
  sched_memo_shapes : int;
      (** distinct block shapes in the shared memo after the session *)
  config : string;  (** the persistence configuration string *)
  saved_to : string option;  (** cache directory written, if any *)
}

(** Cycles of the baseline over cycles of the selected design. *)
val speedup : outcome -> float

(** Explore each kernel in order. With [cache_dir], the shared memo and
    each kernel's point cache are warm-loaded before and saved (merged
    with the directory's prior contents) after; [cold] skips the loads
    but still saves. Selections are bit-identical cold and warm, batched
    and sequential. *)
val run_many :
  ?cache_dir:string ->
  ?cold:bool ->
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?capacity:int ->
  ?backend:Engine.Backend.t ->
  ?search_config:Search.config ->
  Engine.task list ->
  summary
