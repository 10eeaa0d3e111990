(** Host-speed-corrected timing.

    The hosts this benchmark runs on share cores with other tenants. A
    fixed integer loop runs up to 1.8x faster or slower from one second
    to the next on the 2-core x86-64 VM the benchmark was written on. {!timed}
    samples that loop before, during (every [interval] seconds, from a
    timer signal) and after a section, takes the loop's time out of the
    section, and scales the rest to the loop's reference speed. The
    program under test is not touched. *)

let now = Unix.gettimeofday

(** The loop's time at the reference speed: its median on that VM. *)
let reference_s = 0.002

let interval = 0.05

let loop () =
  let t0 = now () in
  let r = ref 0 in
  for i = 1 to 2_000_000 do
    r := !r lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !r);
  now () -. t0

type meter = { mutable samples : float list; mutable spent : float }

let sample m =
  let t0 = now () in
  m.samples <- loop () :: m.samples;
  m.spent <- m.spent +. (now () -. t0)

(* The mean loop time, without the samples the process was descheduled
   in (more than twice the median): those stalls are not speed. *)
let typical l =
  let a = Array.of_list (List.sort compare l) in
  let median = a.(Array.length a / 2) in
  let kept = List.filter (fun x -> x <= 2.0 *. median) l in
  List.fold_left ( +. ) 0.0 kept /. float_of_int (List.length kept)

(** [timed f] is [(f (), scaled, raw)]: [raw] is the section's time as
    read, less the loop samples taken during it; [scaled] is [raw] at
    the reference speed. With [~during:false] the loop is sampled only
    before and after, so timers inside [f] never include a sample. *)
let timed ?(during = true) f =
  let m = { samples = []; spent = 0.0 } in
  for _ = 1 to 3 do sample m done;
  let before = m.spent in
  let off = { Unix.it_interval = 0.0; it_value = 0.0 } in
  let every = if during then interval else 0.0 in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample m)) in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = every; it_value = every });
  let t0 = now () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL off);
        Sys.set_signal Sys.sigalrm previous)
      f
  in
  let raw = now () -. t0 -. (m.spent -. before) in
  for _ = 1 to 3 do sample m done;
  (r, raw *. reference_s /. typical m.samples, raw)
