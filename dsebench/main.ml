(** Benchmark runner.

    {v
    main.exe --workload sweep|joint|session|verify --seed N
             --seconds S --trace 0|1
    v}

    Prints one line per metric, then, as the last line, one JSON object
    with [correct], [attempted], [failed] and [metrics]: the end-to-end
    metrics with [--trace 0], the per-layer metrics with [--trace 1]. *)

open Dsebench

let usage =
  "usage: main.exe --workload (sweep|joint|session|verify) --seed N --seconds S \
   --trace (0|1)"

let die msg =
  prerr_endline msg;
  exit 2

let json_float v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := Some n | None -> die usage);
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> die usage);
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> die usage);
        parse rest
    | _ -> die usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match Workload.find !workload with Some w -> w | None -> die usage
  in
  let seed = match !seed with Some s -> s | None -> die usage in
  let r = Measure.run ~seed ~seconds:!seconds ~trace:!trace w in
  Printf.printf "# workload %s (%s), seed %d, %d repetition(s), %s\n" w.Workload.name
    w.Workload.why seed r.Measure.reps
    (if !trace then "traced" else "untraced");
  List.iter
    (fun (n, u, v) -> Printf.printf "%-34s %18.6f %s\n" n v u)
    r.Measure.metrics;
  Printf.printf "%-34s %18.6f ratio (%d of %d kernel explorations failed)\n" "fail_frac"
    (float_of_int r.Measure.failed /. float_of_int (max 1 r.Measure.attempted))
    r.Measure.failed r.Measure.attempted;
  List.iter
    (fun (n, l) ->
      if l <> [] then
        Printf.printf "# %s samples (%d): %s\n" n (List.length l)
          (String.concat " " (List.map (Printf.sprintf "%.4f") l)))
    r.Measure.samples;
  List.iter (fun p -> Printf.printf "# problem: %s\n" p) r.Measure.problems;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.Measure.correct r.Measure.attempted r.Measure.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          r.Measure.metrics))
