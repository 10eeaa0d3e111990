(** The design space exploration algorithm — Figure 2 of the paper.

    Starting from a saturation point chosen with dependence information
    (Section 5.3), the search walks the unroll-factor space guided by the
    balance metric's monotonicity (Observation 3): while compute bound it
    doubles the unroll product; once a memory-bound or over-capacity
    design appears it bisects between the last compute-bound design that
    fits and the current one, always on products that are multiples of
    the saturation product. *)

open Ir

type config = {
  balance_tolerance : float;
      (** |B - 1| within this is considered balanced (the paper tests
          B = 1 exactly, which floating-point estimates never hit) *)
  max_steps : int;  (** hard cap on evaluated designs *)
}

let default_config = { balance_tolerance = 0.05; max_steps = 64 }

type step = {
  point : Design.point;
  verdict : string;  (** human-readable: compute-bound, memory-bound, ... *)
}

type result = {
  selected : Design.point;
  steps : step list;  (** every synthesized design, in search order *)
  sat : Saturation.t;
  uinit : (string * int) list;
  stats : Design.stats;
      (** evaluation counters for this run only: synthesis runs, cache
          hits, transform/estimate wall time *)
}

(* ------------------------------------------------------------------ *)
(* Vector enumeration within bounds *)

(* The enumeration primitives are shared with [Space] through
   [Dse.Util]; here they range over the saturation analysis's eligible
   loops. *)
let vectors_between (ctx : Design.context) (sat : Saturation.t) ~lower ~upper
    ~product : (string * int) list list =
  Util.vectors_between ctx ~eligible:sat.Saturation.eligible ~lower ~upper
    ~product

(** Products reachable by some vector of eligible divisor factors. *)
let achievable_products (ctx : Design.context) (sat : Saturation.t) ~upper :
    int list =
  Util.achievable_products ctx ~eligible:sat.Saturation.eligible ~upper

(* ------------------------------------------------------------------ *)
(* Loop ranking for Uinit and Increase (Section 5.3) *)

(** Higher weight = more promising to unroll: a loop carrying no (true,
    anti or output) dependence is unboundedly parallel; otherwise larger
    minimum nonzero carried distances admit more parallelism. *)
let loop_weights (source : Ast.kernel) : (string * float) list =
  let spine = Loop_nest.spine source.k_body in
  List.map
    (fun (l : Ast.loop) ->
      if Analysis.Dependence.loop_carries_no_dependence source source.k_body l.index
      then (l.index, Float.infinity)
      else
        match
          Analysis.Dependence.min_carried_distance source source.k_body l.index
        with
        | Some d -> (l.index, float_of_int d)
        | None -> (l.index, 1.0))
    spine

let score weights v =
  List.fold_left
    (fun acc (i, u) ->
      if u <= 1 then acc
      else
        let w =
          match List.assoc_opt i weights with
          | Some w when w = Float.infinity -> 1000.0
          | Some w -> w
          | None -> 1.0
        in
        acc +. (w *. Float.log (float_of_int u)))
    0.0 v

(** Initial point: prefer Sat_i of a dependence-free loop; otherwise the
    saturation-set vector that weights loops by carried distance. *)
let choose_uinit (ctx : Design.context) (sat : Saturation.t) :
    (string * int) list =
  let weights = loop_weights ctx.Design.source in
  let free_loop =
    List.find_opt
      (fun i -> List.assoc_opt i weights = Some Float.infinity)
      sat.Saturation.eligible
  in
  let by_sat_i =
    Option.bind free_loop (fun i -> Saturation.sat_i ctx sat i)
  in
  match by_sat_i with
  | Some v -> v
  | None -> (
      match Saturation.sat_set ctx sat with
      | [] -> Design.ubase ctx
      | vs ->
          List.fold_left
            (fun best v -> if score weights v > score weights best then v else best)
            (List.hd vs) (List.tl vs))

(* ------------------------------------------------------------------ *)
(* Figure 2 *)

let run ?(config = default_config) (ctx : Design.context) : result =
  let sat =
    Saturation.compute ~pipeline:ctx.Design.pipeline
      ~num_memories:ctx.Design.profile.Hls.Estimate.device.Hls.Device.num_memories
      ctx.Design.source
  in
  let weights = loop_weights ctx.Design.source in
  let umax = Design.umax ctx in
  let ubase = Design.ubase ctx in
  let uinit = choose_uinit ctx sat in
  let psat_product = max 1 (Design.product uinit) in
  (* The context's evaluation cache is the memo: it keys on the
     *normalized* vector, so partial vectors from [choose_uinit] /
     [Saturation.sat_i] and full vectors from [vectors_between] that
     denote the same design share one synthesis run. *)
  let stats_before = Design.stats_snapshot ctx in
  let steps = ref [] in
  let evaluate v = Design.evaluate ctx v in
  let log point verdict = steps := { point; verdict } :: !steps in
  (* A vector is rejected without synthesis when its base configuration
     is illegal (the jam would reorder a scalar recurrence, so the design
     computes wrong values; the verdict's kernel-level facts, one flow
     graph included, are computed once per run), or when the tier-1
     capacity gate — the analytical area floor is admissible — puts it
     over capacity (counted as pruned). *)
  let verdict = Check.Legality.config_verdict ctx.Design.source in
  let illegal v =
    match verdict (Design.base_config ctx v) with
    | Check.Legality.Config_illegal _ -> true
    | _ -> false
  in
  let rejected v =
    illegal v
    ||
    match Design.quick ctx v with
    | Some q when q.Hls.Quick.slices_lb > ctx.Design.capacity ->
        Design.note_pruned ctx;
        true
    | _ -> false
  in
  let pick_best cands =
    match cands with
    | [] -> None
    | v :: rest ->
        Some
          (List.fold_left
             (fun best v -> if score weights v > score weights best then v else best)
             v rest)
  in
  (* Increase: the dominating vector whose product is (closest to) twice
     the current one. Divisor-constrained trip counts (e.g. 30) may not
     admit the exact double, so nearby achievable products are tried in
     order of distance from 2*P. *)
  let increase u =
    let p = Design.product u in
    let target = 2 * p in
    let products =
      achievable_products ctx sat ~upper:umax
      |> List.filter (fun q -> q > p)
      |> List.sort (fun a b ->
             compare (abs (a - target), a) (abs (b - target), b))
    in
    let rec try_products = function
      | [] -> u
      | q :: rest -> (
          match pick_best (vectors_between ctx sat ~lower:u ~upper:umax ~product:q) with
          | Some v -> v
          | None -> try_products rest)
    in
    try_products products
  in
  (* SelectBetween: a product that is a multiple of P(Uinit), strictly
     between the two, as close to the midpoint as possible. *)
  let select_between usmall ularge =
    let ps = Design.product usmall and pl = Design.product ularge in
    let mid = (ps + pl) / 2 in
    let candidates =
      achievable_products ctx sat ~upper:ularge
      |> List.filter (fun p -> p > ps && p < pl && p mod psat_product = 0)
      |> List.sort (fun a b -> compare (abs (a - mid)) (abs (b - mid)))
    in
    let rec try_products = function
      | [] -> usmall
      | p :: rest -> (
          match
            pick_best (vectors_between ctx sat ~lower:usmall ~upper:ularge ~product:p)
          with
          | Some v -> v
          | None -> try_products rest)
    in
    try_products candidates
  in
  (* FindLargestFit: the largest design between Ubase and Uinit that fits
     the device, regardless of balance. *)
  let find_largest_fit () =
    let products =
      achievable_products ctx sat ~upper:uinit
      |> List.filter (fun p -> p <= Design.product uinit)
      |> List.sort (fun a b -> compare b a)
    in
    let rec go = function
      | [] -> ubase
      | p :: rest -> (
          match pick_best (vectors_between ctx sat ~lower:ubase ~upper:uinit ~product:p) with
          | Some v ->
              if rejected v then go rest
              else begin
                let pt = evaluate v in
                log pt "fit-probe";
                if Design.space pt <= ctx.Design.capacity then v else go rest
              end
          | None -> go rest)
    in
    go products
  in
  let balanced b = Float.abs (b -. 1.0) <= config.balance_tolerance in
  (* State of Figure 2. *)
  let ucurr = ref uinit in
  let umb = ref umax in
  let ucb = ref ubase in
  let seen_cb = ref false in
  let ok = ref false in
  let iterations = ref 0 in
  while not !ok do
    incr iterations;
    if !iterations > config.max_steps then ok := true
    else if rejected !ucurr then begin
      (* Same move as the over-capacity verdict, with no synthesis and
         no logged step. *)
      if Design.vector_equal !ucurr uinit then begin
        ucurr := find_largest_fit ();
        ok := true
      end
      else begin
        ucurr := select_between !ucb !ucurr;
        if Design.vector_equal !ucurr !ucb then ok := true
      end
    end
    else begin
      let pt = evaluate !ucurr in
      let b = Design.balance pt in
      if Design.space pt > ctx.Design.capacity then begin
        log pt "over-capacity";
        if Design.vector_equal !ucurr uinit then begin
          ucurr := find_largest_fit ();
          ok := true
        end
        else ucurr := select_between !ucb !ucurr
      end
      else if balanced b then begin
        log pt "balanced";
        ok := true
      end
      else if b < 1.0 then begin
        log pt "memory-bound";
        umb := !ucurr;
        if Design.vector_equal !ucurr uinit then ok := true
        else ucurr := select_between !ucb !umb
      end
      else begin
        log pt "compute-bound";
        ucb := !ucurr;
        seen_cb := true;
        if Design.vector_equal !umb umax then ucurr := increase !ucb
        else ucurr := select_between !ucb !umb
      end;
      if (not !ok) && Design.vector_equal !ucurr !ucb then ok := true
    end
  done;
  (* The step budget can end the loop on an unchecked move; [ucb] is
     always legal ([ubase], which jams nothing, or a vector that passed
     [rejected] and was evaluated). *)
  if illegal !ucurr then ucurr := !ucb;
  let selected = evaluate !ucurr in
  (* Make sure the selected design appears in the step log. *)
  if not (List.exists (fun s -> Design.vector_equal s.point.Design.vector !ucurr) !steps)
  then log selected "selected";
  let stats =
    Design.stats_diff ~before:stats_before ~after:(Design.stats_snapshot ctx)
  in
  { selected; steps = List.rev !steps; sat; uinit; stats }

(** Number of distinct designs synthesized during the search. *)
let designs_evaluated (r : result) : int =
  List.sort_uniq compare (List.map (fun s -> s.point.Design.vector) r.steps)
  |> List.length
