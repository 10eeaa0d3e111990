(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for *every* unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    One sweep serves both spaces. It enumerates unroll vectors x tile
    options x scalar-replacement/peel/LICM toggles, drops the
    configurations the legality pre-pruner rejects and the spellings
    that denote a design already enumerated, and evaluates the
    survivors in one worker loop. The unroll sweep is the base slice of
    that enumeration: the context's own tile and toggles, every divisor
    vector. The joint sweep takes every tile option and toggle.

    The space size follows the paper's accounting — all integer unroll
    factors for each explorable loop (trip_1 * trip_2 * ...) — while the
    sweep evaluates the divisor sub-lattice, which contains every
    distinct generated design (a non-divisor factor leaves an epilogue
    that only degrades the design).

    The worker loop can run on several OCaml 5 domains ([jobs]): work is
    handed out in chunks from an atomic cursor, each domain evaluates
    against a {!Design.fork} of the context, and the forks' caches and
    counters are merged back on join. The result order is the
    enumeration order regardless of [jobs].

    When pruning, tier-1 lower bounds ({!Design.quick_config}) are
    computed for every survivor first, survivors are visited in
    ascending lower-bound order, and one is skipped — never generated,
    never estimated — when its bounds prove it cannot fit the device or
    cannot come within 5% of the best fitting design seen so far.
    Pruning is admissible: skipped configurations can be neither
    {!best_fitting} nor {!smallest_comparable} (at slacks up to its 5%
    default), so both selections are unchanged; only the set of
    evaluated points shrinks. *)

open Ir

type sweep_point = {
  config : Design.config;
  point : Design.point;
}

type joint_point = sweep_point

type t = {
  points : sweep_point list;
      (** the evaluated configurations, in enumeration order *)
  space_size : int;
      (** configurations enumerated before any pruning: unroll vectors x
          tile options x toggle combinations *)
  pruned_illegal : int;  (** dropped by the legality pre-pruner *)
  pruned_redundant : int;
      (** dropped as another spelling of a configuration already
          enumerated (canonicalization + dedupe) *)
  pruned_bound : int;  (** skipped on tier-1 lower bounds *)
  total_designs : int;
      (** paper-style space size: product of trip counts x tile options
          x toggle combinations *)
}

type joint = t

(** All divisor vectors over the explorable loops whose unroll product
    is at most [max_product] — {!Util.divisor_vectors}, re-exported
    because the sweep's callers have always found it here. [eligible]
    defaults to the loops the saturation analysis considers (those that
    carry memory accesses); MM's innermost loop is excluded exactly as
    in the paper. *)
let divisor_vectors ?max_product (ctx : Design.context)
    ~(eligible : string list) : (string * int) list list =
  Util.divisor_vectors ?max_product ctx ~eligible

(** Number of domains a sweep uses when [jobs] is not given. *)
let default_jobs () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Slack of {!smallest_comparable}'s default criterion, and the slack the
   pruned sweep keeps above its incumbent: a configuration it skips
   cannot be within this slack of the best fitting design, so neither
   selection changes. *)
let comparable_slack = 0.05

let default_tile_candidates = [ 4; 8; 16 ]

(** The tile options the joint sweep enumerates: no tile, plus each
    requested size clamped to the divisor the strip-mine would use, on
    every spine loop it properly splits. *)
let joint_tile_options (ctx : Design.context) ~(candidates : int list) :
    (string * int) option list =
  let tiles =
    List.concat_map
      (fun (l : Ast.loop) ->
        let trip = Ast.loop_trip l in
        let divs = Util.spine_divisors_of ctx l in
        List.filter_map
          (fun t ->
            let t = max 1 (min t trip) in
            let d =
              List.fold_left (fun best d -> if d <= t then d else best) 1 divs
            in
            if d <= 1 || d >= trip then None else Some (l.Ast.index, d))
          candidates)
      ctx.Design.spine
    |> List.sort_uniq compare
  in
  None :: List.map (fun x -> Some x) tiles

let base_toggles (ctx : Design.context) : bool * bool * bool =
  let b = Design.base_config ctx [] in
  (b.Design.scalar_replace, b.Design.peel, b.Design.licm)

(* All eight toggle combinations, the base pipeline's first so the
   unroll-only sub-space is enumerated before any variation — ties in
   the selection then resolve toward the design the unroll sweep would
   pick. *)
let toggle_combos (ctx : Design.context) : (bool * bool * bool) list =
  let base = base_toggles ctx in
  let all =
    List.concat_map
      (fun sr ->
        List.concat_map
          (fun peel -> List.map (fun licm -> (sr, peel, licm)) [ true; false ])
          [ true; false ])
      [ true; false ]
  in
  base :: List.filter (fun t -> t <> base) all

(* The enumeration: vectors x tiles x toggles (toggles outermost,
   vectors innermost), each configuration through the legality verdict
   — its kernel-level facts, one flow graph included, computed once —
   and deduplicated on the canonical key of its canonical spelling.
   Returns the survivors in enumeration order with the enumerated,
   illegal and redundant counts. *)
let enumerate (ctx : Design.context) ~vectors ~tiles ~toggles =
  let verdict = Check.Legality.config_verdict ctx.Design.source in
  let enumerated = ref 0 and ill = ref 0 and red = ref 0 in
  let seen : (Design.config, unit) Hashtbl.t = Hashtbl.create 64 in
  let survivors = ref [] in
  List.iter
    (fun (scalar_replace, peel, licm) ->
      List.iter
        (fun tile ->
          List.iter
            (fun vector ->
              incr enumerated;
              let c = { Design.vector; tile; scalar_replace; peel; licm } in
              match verdict c with
              | Check.Legality.Config_illegal _ -> incr ill
              | v ->
                  let canonical =
                    match v with
                    | Check.Legality.Config_redundant canon -> canon
                    | _ -> c
                  in
                  let key = Design.normalize_config ctx canonical in
                  if Hashtbl.mem seen key then incr red
                  else begin
                    Hashtbl.replace seen key ();
                    survivors := key :: !survivors
                  end)
            vectors)
        tiles)
    toggles;
  (Array.of_list (List.rev !survivors), !enumerated, !ill, !red)

(* The sweeps' one evaluation loop. The worker visits [configs] in
   ascending [bounds] order, ties (and every [None] bound, read as 0) in
   enumeration order — so without bounds it is the enumeration order.
   It skips a configuration whose bounds prove it cannot fit the device
   or come within [comparable_slack] of the best fitting design
   evaluated so far; a [None] bound never skips. The incumbent only ever
   holds the true cycle count of a fitting evaluated point, so a skip is
   justified no matter when it is read — with several domains the *set*
   of skipped configurations may vary between runs (a slower domain may
   evaluate one a faster run would skip), but the selections never do.

   Work is handed out in chunks from an atomic cursor and every result
   lands at its enumeration index, so the evaluated points come out in
   enumeration order whatever [jobs] is. With one job (or too few
   configurations to share) the worker runs inline on [ctx]; otherwise
   each of [jobs] spawned domains evaluates against its own
   {!Design.fork}, and the forks' caches and counters are absorbed back
   after the join. *)
let evaluate ~jobs (ctx : Design.context) (configs : Design.config array)
    (bounds : Hls.Quick.t option array) : sweep_point option array =
  let n = Array.length configs in
  let results : sweep_point option array = Array.make n None in
  let lb i =
    match bounds.(i) with Some q -> q.Hls.Quick.cycles_lb | None -> 0
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (lb a, a) (lb b, b)) order;
  let incumbent = Atomic.make max_int in
  let rec lower_incumbent c =
    let cur = Atomic.get incumbent in
    if c < cur && not (Atomic.compare_and_set incumbent cur c) then
      lower_incumbent c
  in
  let limit inc =
    if inc = max_int then max_int
    else int_of_float (Float.ceil (float_of_int inc *. (1.0 +. comparable_slack)))
  in
  let skip i =
    match bounds.(i) with
    | None -> false
    | Some q ->
        q.Hls.Quick.slices_lb > ctx.Design.capacity
        || q.Hls.Quick.cycles_lb > limit (Atomic.get incumbent)
  in
  let cursor = Atomic.make 0 in
  let chunk = max 1 (n / (jobs * 8)) in
  let worker (fork : Design.context) () =
    let rec loop () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        for k = start to min (start + chunk) n - 1 do
          let i = order.(k) in
          if skip i then Design.note_pruned fork
          else begin
            let p = Design.evaluate_config fork configs.(i) in
            results.(i) <- Some { config = configs.(i); point = p };
            if Design.space p <= ctx.Design.capacity then
              lower_incumbent (Design.cycles p)
          end
        done;
        loop ()
      end
    in
    loop ()
  in
  if jobs <= 1 || n < 2 * jobs then worker ctx ()
  else begin
    let forks = Array.init jobs (fun _ -> Design.fork ctx) in
    let domains = Array.map (fun fork -> Domain.spawn (worker fork)) forks in
    Array.iter Domain.join domains;
    Array.iter (fun fork -> Design.absorb ~into:ctx fork) forks
  end;
  results

(* Enumerate the divisor vectors (over the saturation analysis's loops)
   x [tiles] x [toggles] and evaluate the survivors, pruning on tier-1
   bounds when [prune]. *)
let run ~prune ~tiles ~toggles ?(max_product = max_int) ?jobs
    (ctx : Design.context) : t =
  let eligible =
    (Saturation.compute ~pipeline:ctx.Design.pipeline
       ~num_memories:
         ctx.Design.profile.Hls.Estimate.device.Hls.Device.num_memories
       ctx.Design.source)
      .Saturation.eligible
  in
  let vectors = divisor_vectors ~max_product ctx ~eligible in
  let configs, space_size, pruned_illegal, pruned_redundant =
    enumerate ctx ~vectors ~tiles ~toggles
  in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let bounds =
    Array.map
      (fun c -> if prune then Design.quick_config ctx c else None)
      configs
  in
  let points =
    List.filter_map Fun.id (Array.to_list (evaluate ~jobs ctx configs bounds))
  in
  let total_designs =
    List.fold_left
      (fun acc (l : Ast.loop) ->
        if List.mem l.index eligible then acc * Ast.loop_trip l else acc)
      1 ctx.Design.spine
    * List.length tiles * List.length toggles
  in
  {
    points;
    space_size;
    pruned_illegal;
    pruned_redundant;
    pruned_bound = Array.length configs - List.length points;
    total_designs;
  }

let sweep ?max_product ?(prune = false) ?jobs (ctx : Design.context) : t =
  run ~prune
    ~tiles:[ (Design.base_config ctx []).Design.tile ]
    ~toggles:[ base_toggles ctx ] ?max_product ?jobs ctx

let sweep_joint ?max_product ?(tile_candidates = default_tile_candidates)
    ?(jobs = 1) (ctx : Design.context) : t =
  run ~prune:true
    ~tiles:(joint_tile_options ctx ~candidates:tile_candidates)
    ~toggles:(toggle_combos ctx) ?max_product ~jobs ctx

(** Best fitting design: fewest cycles, ties to the smaller design, then
    to enumeration order. *)
let best_fitting (ctx : Design.context) (t : t) : sweep_point option =
  List.fold_left
    (fun best sp ->
      if Design.space sp.point > ctx.Design.capacity then best
      else
        match best with
        | None -> Some sp
        | Some b ->
            let c = Design.cycles sp.point and cb = Design.cycles b.point in
            if c < cb || (c = cb && Design.space sp.point < Design.space b.point)
            then Some sp
            else best)
    None t.points

let joint_best = best_fitting

(** Smallest design whose performance is within [slack] (e.g. 0.05) of
    the best fitting design — the paper's third optimization criterion. *)
let smallest_comparable ?(slack = comparable_slack) (ctx : Design.context) (t : t) :
    sweep_point option =
  match best_fitting ctx t with
  | None -> None
  | Some best ->
      let limit =
        int_of_float
          (Float.ceil (float_of_int (Design.cycles best.point) *. (1.0 +. slack)))
      in
      let comparable =
        List.filter
          (fun sp ->
            Design.space sp.point <= ctx.Design.capacity
            && Design.cycles sp.point <= limit)
          t.points
      in
      List.fold_left
        (fun acc sp ->
          match acc with
          | None -> Some sp
          | Some cur ->
              if Design.space sp.point < Design.space cur.point then Some sp
              else acc)
        None comparable

(** Fraction of the paper-style design space a search visited. *)
let fraction_searched (t : t) ~(visited : int) : float =
  float_of_int visited /. float_of_int (max 1 t.total_designs)
