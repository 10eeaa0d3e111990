(** Spans the traced run records around calls into the program's public
    functions. The program itself is not instrumented: the evaluation
    backend is wrapped (every [synthesize] and [bound] call is timed),
    and the design-space calls the workloads make are timed through
    {!span}. The in-program timers of [Design.stats] split the
    [synthesize] spans further (transform, DFG, schedule, layout). *)

type t = {
  lock : Mutex.t;  (** sweeps may evaluate on several domains *)
  mutable synth : float list;  (** seconds per [synthesize] call *)
  mutable bound_calls : int;
  mutable bound_s : float;
  mutable dse_s : float;  (** time inside {!span} *)
}

let create () =
  { lock = Mutex.create (); synth = []; bound_calls = 0; bound_s = 0.0; dse_s = 0.0 }

let now = Unix.gettimeofday

let record t f =
  Mutex.lock t.lock;
  f ();
  Mutex.unlock t.lock

(** [b] with its [synthesize] and [bound] timed into [t]. The name is
    kept, so persisted stores are shared with the unwrapped backend. *)
let wrap t (b : Engine.Backend.t) : Engine.Backend.t =
  {
    b with
    synthesize =
      (fun env store c ->
        let t0 = now () in
        let p = b.synthesize env store c in
        let d = now () -. t0 in
        record t (fun () -> t.synth <- d :: t.synth);
        p);
    bound =
      (fun env store c ->
        let t0 = now () in
        let q = b.bound env store c in
        let d = now () -. t0 in
        record t (fun () ->
            t.bound_calls <- t.bound_calls + 1;
            t.bound_s <- t.bound_s +. d);
        q);
  }

let backend = function
  | None -> Engine.Backend.default
  | Some t -> wrap t Engine.Backend.default

(** Run [f], timing it as design-space (lib/core) work when traced. *)
let span probe f =
  match probe with
  | None -> f ()
  | Some t ->
      let t0 = now () in
      let r = f () in
      t.dse_s <- t.dse_s +. (now () -. t0);
      r

let synth_s t = List.fold_left ( +. ) 0.0 t.synth

(** [q]-quantile (0..1) of the [synthesize] latencies, nearest rank. *)
let synth_quantile t q =
  match List.sort compare t.synth with
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))
