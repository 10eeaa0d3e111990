(** One benchmark run: repeat a workload for a time budget and reduce
    the repetitions to the end-to-end metrics (untraced) or to the
    per-layer metrics of a traced repetition (traced).

    Every repetition is compared with the first: each kernel must select
    the same configuration, cycles and slices cold and warm, the warm
    phase must synthesize nothing, and the first repetition's selected
    designs must compute the same values under [Hls.Sim] as the source
    kernel under [Ir.Eval] on seeded inputs. A kernel failing any of
    these counts as failed in that repetition. *)

let now = Unix.gettimeofday

type result = {
  correct : bool;
  attempted : int;  (** kernel explorations, over all repetitions *)
  failed : int;
  reps : int;
  samples : (string * float list) list;  (** timed samples, in run order *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  problems : string list;
}

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean l =
  match l with
  | [] -> 0.0
  | _ ->
      exp (List.fold_left (fun s x -> s +. log x) 0.0 l /. float_of_int (List.length l))

(** Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** Values of the selected design ([Hls.Sim]) against the source kernel
    ([Ir.Eval]) on inputs drawn from [seed]. *)
let values_agree ~seed (s : Workload.sel) =
  let src = s.Workload.source in
  let inputs = Kernels.test_inputs ~seed src in
  try
    let sim = Hls.Sim.run ~inputs s.Workload.profile s.Workload.design in
    sim.Hls.Sim.arrays = Ir.Eval.observables (Ir.Eval.run ~inputs src)
  with _ -> false

type rep = {
  parse_s : float;
  cold : Workload.phase;
  warm : Workload.phase;  (** the first warm phase *)
  warm_s : float list;  (** every warm phase's time *)
}

(* The warm phase is short; a timed repetition repeats it until
   [warm_budget_s] (as read) is spent, at most [warm_repeats] times, so
   its median rests on several samples per repetition. *)
let warm_budget_s = 2.0
let warm_repeats = 8

let rep ?probe ?observe ?during ?(warm_budget_s = warm_budget_s) ~seed ~cache_dir w =
  let s = Workload.setup ?probe ~seed w in
  let kernels = s.Workload.kernels and parse_s = s.Workload.parse_s in
  let cold = Workload.cold ?probe ?observe ?during ~cache_dir w s in
  let warm = Workload.warm ~cache_dir w kernels in
  let rec again acc spent n =
    if spent >= warm_budget_s || n >= warm_repeats then List.rev acc
    else
      let p = Workload.warm ~cache_dir w kernels in
      again (p.Workload.wall_s :: acc) (spent +. p.Workload.raw_s) (n + 1)
  in
  let warm_s = again [ warm.Workload.wall_s ] warm.Workload.raw_s 1 in
  ignore (Engine.Persist.clear ~cache_dir);
  { parse_s; cold; warm; warm_s }

let key (o : Workload.outcome) =
  match o.Workload.sel with Ok s -> Some s.Workload.key | Error _ -> None

(** Kernel name -> the key every repetition must reproduce; [None] when
    the first repetition already failed the kernel. *)
let reference ~seed (r : rep) =
  List.map
    (fun (o : Workload.outcome) ->
      match o.Workload.sel with
      | Ok s when values_agree ~seed s -> (o.Workload.kernel, Some s.Workload.key)
      | _ -> (o.Workload.kernel, None))
    r.cold.Workload.outcomes

let failures reference (r : rep) =
  let find ph name =
    List.find_opt (fun (o : Workload.outcome) -> o.Workload.kernel = name) ph.Workload.outcomes
  in
  List.length
    (List.filter
       (fun (name, want) ->
         let cold = Option.bind (find r.cold name) key in
         let warm_ok =
           match find r.warm name with
           | Some o -> key o = want && o.Workload.evaluations = 0
           | None -> false
         in
         want = None || cold <> want || not warm_ok)
       reference)

(** Error-severity findings of [Check.Run] on the workload's inputs. *)
let input_errors ~seed (w : Workload.t) =
  List.concat_map
    (fun name ->
      let k = Frontend.Parser.kernel_of_string ~name (Gen.text ~seed name) in
      List.map
        (fun d -> name ^ ": " ^ Check.Diag.render d)
        (Check.Diag.errors (Check.Run.all k)))
    w.Workload.inputs

(* Set-up takes well under a millisecond, so it is sampled on its own:
   many set-ups in a row, timed as one section for the speed scale. *)
let setup_samples = 50

let setup_s ~seed w =
  let samples, scaled, raw =
    Speed.timed (fun () ->
        List.init setup_samples (fun _ ->
            let t0 = now () in
            ignore (Sys.opaque_identity (Workload.setup ~seed w));
            now () -. t0))
  in
  (* A sample the timer signal interrupted holds a loop run; the median
     discards the few that do. *)
  median samples *. scaled /. raw

let run ?(work_dir = ".dsebench") ~seed ~seconds ~trace (w : Workload.t) =
  let dir = Filename.concat work_dir (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.rmdir work_dir with Sys_error _ -> ())
  @@ fun () ->
  let problems = ref (input_errors ~seed w) in
  let setup = if trace then 0.0 else setup_s ~seed w in
  let ref_keys = ref None and geo = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 and reps = ref 0 in
  let cold = ref [] and warm = ref [] and traced = ref [] and raw = ref [] in
  let n = ref 0 in
  (* A traced section cannot be sampled during: the layer timers inside
     it must add up to its wall time. Untraced sections of a traced run
     are sampled the same way, so the two compare for the overhead. *)
  let during = not trace in
  let one ?probe ?observe ?warm_budget_s () =
    let cache_dir = Filename.concat dir (Printf.sprintf "rep%d" !n) in
    incr n;
    let r = rep ?probe ?observe ~during ?warm_budget_s ~seed ~cache_dir w in
    let keys =
      match !ref_keys with
      | Some k -> k
      | None ->
          let k = reference ~seed r in
          ref_keys := Some k;
          geo :=
            geomean
              (List.filter_map
                 (fun (_, k) -> Option.map (fun (_, _, c, _) -> float_of_int c) k)
                 k);
          k
    in
    attempted := !attempted + List.length keys;
    failed := !failed + failures keys r;
    incr reps;
    r
  in
  let timed () =
    let r = one () in
    cold := r.cold.Workload.wall_s :: !cold;
    raw := r.cold.Workload.raw_s :: !raw;
    warm := List.rev_append r.warm_s !warm
  in
  let start = now () in
  let layers =
    (* An untimed warm-up repetition pays the one-time costs (the
       heap grows to the workload's size) and sets the reference. *)
    ignore (one ~warm_budget_s:0.0 ());
    if not trace then begin
      (* Repeat until the budget is spent. *)
      timed ();
      while now () -. start < seconds do
        timed ()
      done;
      None
    end
    else begin
      (* Untraced and traced repetitions alternate until the budget is
         spent; the last traced repetition gives the per-layer numbers. *)
      let rec pairs () =
        timed ();
        let probe = Probe.create () in
        let acc = Layers.create ~cache_dir:(Filename.concat dir "replay") w in
        let r = one ~probe ~observe:(Layers.observe acc) () in
        traced := r.cold.Workload.wall_s :: !traced;
        if now () -. start < seconds then pairs ()
        else
          Layers.metrics acc probe r.cold ~parse_s:r.parse_s
            ~kernels:(List.length w.Workload.inputs)
            ~warm_loaded:r.warm.Workload.loaded_points
      in
      Some (pairs ())
    end
  in
  let metrics =
    match layers with
    | Some (m, p) ->
        problems := !problems @ p;
        List.map (fun (n, (u, v)) -> (n, u, v)) m
        @ [
            ( "trace.overhead_frac",
              "ratio",
              (median !traced /. median !cold) -. 1.0 );
          ]
    | None ->
        [
          ("wall_s", "s", median !cold);
          ("warm_s", "s", median !warm);
          ("setup_s", "s", setup);
          ("peak_rss_mb", "MB", peak_rss_mb ());
          ("selected_cycles_geomean", "cycles", !geo);
        ]
  in
  List.iter
    (fun (n, _, v) ->
      if not (Float.is_finite v) then problems := !problems @ [ n ^ " is not finite" ])
    metrics;
  {
    correct = !failed = 0 && !problems = [];
    attempted = !attempted;
    failed = !failed;
    reps = !reps;
    samples =
      List.map (fun (n, l) -> (n, List.rev !l))
        [ ("wall_s", cold); ("wall_s as read", raw); ("warm_s", warm); ("traced wall_s", traced) ];
    metrics;
    problems = !problems;
  }
