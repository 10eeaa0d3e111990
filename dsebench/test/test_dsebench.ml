(* The benchmark's own tests: the generator is deterministic per seed and
   its kernels are clean, metric names are well formed and match
   BENCHMARK.json, and traced and untraced repetitions select the same
   designs on a small instance of every workload kind. *)

open Dsebench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* The "name" values of one top-level array of BENCHMARK.json. *)
let names_in json section =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None
      else if String.sub json i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 ("\"" ^ section ^ "\"") with
  | None -> []
  | Some start ->
      let stop = Option.value ~default:(String.length json) (find_from start "]") in
      let rec collect i acc =
        match find_from i "\"name\": \"" with
        | Some j when j < stop ->
            let v = j + 9 in
            let e = String.index_from json v '"' in
            collect e (String.sub json v (e - v) :: acc)
        | _ -> List.rev acc
      in
      collect start []

let well_formed name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let test_generator () =
  List.iter
    (fun (s : Gen.shape) ->
      let a = Gen.source ~seed:7 s and b = Gen.source ~seed:7 s in
      check (s.Gen.name ^ ": same seed, same text") (a = b);
      check
        (s.Gen.name ^ ": seeds vary the coefficients")
        (List.exists (fun seed -> Gen.source ~seed s <> a) [ 1; 2; 3; 4; 5 ]);
      List.iter
        (fun seed ->
          let k =
            Frontend.Parser.kernel_of_string ~name:s.Gen.name (Gen.source ~seed s)
          in
          check
            (Printf.sprintf "%s seed %d: no error-severity finding" s.Gen.name seed)
            (Check.Diag.errors (Check.Run.all k) = []))
        [ 1; 2; 3 ])
    Gen.catalog

let small =
  let open Workload in
  [
    { name = "sweep"; kind = Sweep { max_product = 16; verify = false }; inputs = [ "jac"; "row5" ]; why = "" };
    { name = "joint"; kind = Joint { max_product = 16 }; inputs = [ "fir" ]; why = "" };
    { name = "session"; kind = Session; inputs = [ "fir"; "histogram"; "stencil3d" ]; why = "" };
    { name = "verify"; kind = Sweep { max_product = 16; verify = true }; inputs = [ "fir" ]; why = "" };
  ]

let keys (ph : Workload.phase) =
  List.map
    (fun (o : Workload.outcome) ->
      match o.Workload.sel with Ok s -> Some s.Workload.key | Error _ -> None)
    ph.Workload.outcomes

let test_traced_agrees () =
  List.iter
    (fun (w : Workload.t) ->
      let dir = "dsebench-test-" ^ w.Workload.name in
      Sys.mkdir dir 0o755;
      let untraced = Measure.rep ~seed:3 ~cache_dir:dir w in
      let probe = Probe.create () in
      let acc = Layers.create ~cache_dir:(Filename.concat dir "replay") w in
      let traced = Measure.rep ~probe ~observe:(Layers.observe acc) ~seed:3 ~cache_dir:dir w in
      let ks = keys untraced.Measure.cold in
      check (w.Workload.name ^ ": every kernel selects") (List.for_all Option.is_some ks);
      check (w.Workload.name ^ ": traced selections = untraced") (keys traced.Measure.cold = ks);
      check (w.Workload.name ^ ": warm selections = cold") (keys traced.Measure.warm = ks);
      let _, problems =
        Layers.metrics acc probe traced.Measure.cold ~parse_s:0.0 ~kernels:1 ~warm_loaded:0
      in
      List.iter (fun p -> check (w.Workload.name ^ ": " ^ p) false) problems;
      Measure.rm_rf dir)
    small

let test_metric_names () =
  let json = read_file "../../BENCHMARK.json" in
  let declared = names_in json in
  let w = List.nth small 2 in
  let run trace = Measure.run ~work_dir:"dsebench-test-run" ~seed:1 ~seconds:0.01 ~trace w in
  List.iter
    (fun (trace, section) ->
      let r = run trace in
      check (section ^ ": run correct") r.Measure.correct;
      let names = List.map (fun (n, _, _) -> n) r.Measure.metrics in
      List.iter (fun n -> check (n ^ " is well formed") (well_formed n)) names;
      check (section ^ ": names match BENCHMARK.json") (names = declared section))
    [ (false, "end_to_end"); (true, "per_layer") ];
  check "workloads match BENCHMARK.json"
    (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all = declared "workloads")

let () =
  test_generator ();
  test_traced_agrees ();
  test_metric_names ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "dsebench: all checks passed"
