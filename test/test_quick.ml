(** Two-tier estimation tests: the fused tri-mode scheduler must equal
    three independent single-mode runs, the analytical pre-estimator's
    lower bounds must be admissible (never exceed the full estimate),
    and pruned sweeps/searches must select the same designs as their
    exhaustive counterparts while synthesizing strictly fewer points. *)

open Ir
module B = Builder
module Dfg = Hls.Dfg
module Schedule = Hls.Schedule
module Estimate = Hls.Estimate
module Quick = Hls.Quick
module Design = Dse.Design
module Space = Dse.Space
module Search = Dse.Search

let sched_profiles =
  List.concat_map
    (fun pipelined ->
      List.map
        (fun chaining ->
          let p = Estimate.default_profile ~pipelined () in
          { Schedule.device = p.Estimate.device; mem = p.Estimate.mem; chaining })
        [ false; true ])
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Fused tri-mode scheduler == three independent runs *)

let tri_equals_three_runs (p : Schedule.profile) (g : Dfg.t) : bool =
  let t = Schedule.run_tri p g in
  t.Schedule.joint = Schedule.run ~mode:`Joint p g
  && t.Schedule.mem_only = Schedule.run ~mode:`Mem_only p g
  && t.Schedule.comp_only = Schedule.run ~mode:`Comp_only p g

(** Walk a kernel body the way the estimator does — maximal loop-free
    blocks, in traversal order so the access cursor stays in sync — and
    check [pred] under every profile on every block's DFG. *)
let blocks_satisfy pred (k : Ast.kernel) : bool =
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let cursor = Dfg.cursor_of accesses in
  let mem_of (a : Analysis.Access.t) = a.Analysis.Access.id mod 4 in
  let ok = ref true in
  let check_block stmts =
    if stmts <> [] then begin
      let g = Dfg.of_block ~kernel:k ~mem_of ~cursor stmts in
      List.iter (fun p -> ok := !ok && pred p g) sched_profiles
    end
  in
  let rec walk stmts =
    let rec go cur = function
      | [] -> check_block (List.rev cur)
      | Ast.For l :: rest ->
          check_block (List.rev cur);
          walk l.Ast.body;
          go [] rest
      | s :: rest -> go (s :: cur) rest
    in
    go [] stmts
  in
  walk k.Ast.k_body;
  !ok

let tri_matches_on_kernel = blocks_satisfy tri_equals_three_runs

let paper_kernels = [ "fir"; "mm"; "pat"; "jac"; "sobel" ]

let test_tri_paper_kernels () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      (* source blocks *)
      Alcotest.(check bool)
        (name ^ " source blocks") true (tri_matches_on_kernel k);
      (* transformed blocks: unrolling gives multi-statement blocks with
         replaced scalars, the structures the estimator actually sees *)
      let spine = Loop_nest.spine k.Ast.k_body in
      let vector =
        List.map (fun (l : Ast.loop) -> (l.Ast.index, 2)) spine
      in
      let r =
        Transform.Pipeline.apply { Transform.Pipeline.default with vector } k
      in
      Alcotest.(check bool)
        (name ^ " transformed blocks") true
        (tri_matches_on_kernel r.Transform.Pipeline.kernel))
    paper_kernels

(* Random straight-line blocks: stores of random expression trees over
   array reads, a scalar and constants, spread over the four memories. *)
let gen_block : Ast.stmt list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map B.int (int_range 0 7);
        return (B.var "x");
        map (fun j -> B.arr1 "a" (B.int j)) (int_range 0 63);
      ]
  in
  let bins =
    [ B.( + ); B.( - ); B.( * ); B.( / ); B.( < ); B.( && ); B.min_; B.max_ ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 4,
            let* op = oneofl bins in
            let* a = go (depth - 1) in
            let* b = go (depth - 1) in
            return (op a b) );
          (1, map B.abs (go (depth - 1)));
        ]
  in
  let* n = int_range 1 5 in
  let* rhss = list_repeat n (go 3) in
  return (List.mapi (fun i rhs -> B.store1 "o" (B.int i) rhs) rhss)

let block_kernel stmts =
  B.kernel "t"
    ~arrays:[ Ast.array_decl "a" [ 64 ]; Ast.array_decl "o" [ 8 ] ]
    ~scalars:[ Ast.scalar_decl "x" ]
    stmts

(* [pred] holds on a random block's DFG under every profile. *)
let random_block_satisfies pred stmts =
  let k = block_kernel stmts in
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let mem_of (a : Analysis.Access.t) = a.Analysis.Access.id mod 4 in
  List.for_all
    (fun p ->
      (* each profile needs its own cursor: of_block consumes it *)
      let cursor = Dfg.cursor_of accesses in
      pred p (Dfg.of_block ~kernel:k ~mem_of ~cursor stmts))
    sched_profiles

let prop_tri_random_blocks = random_block_satisfies tri_equals_three_runs

(* ------------------------------------------------------------------ *)
(* Array-backed scheduler == the hash-table scheduler it replaced *)

(* The block scheduler as it was before its per-cycle state moved into
   union-find port allocators and per-operator count rows: a busy-cycle
   set per memory scanned forward one cycle at a time, and a per-cycle
   operator table with one tuple key per cycle. Kept verbatim as the
   reference; the production scheduler must compute the same results. *)
module Reference = struct
  open Hls

  type mode = Schedule.mode
  type profile = Schedule.profile = {
    device : Device.t;
    mem : Memory_model.t;
    chaining : bool;
  }
  type result = Schedule.result = {
    cycles : int;
    bits_moved : int;
    usage : ((Op_model.op_class * int) * int) list;
    reads : int;
    writes : int;
  }

  let eps = 1e-6

  type state = {
    use_mem : bool;
    use_comp : bool;
    finish : float array;
    busy : (int * int, unit) Hashtbl.t;
    hint : (int, int) Hashtbl.t;
    occupancy : (Op_model.op_class * int * int, int) Hashtbl.t;
    mutable bits : int;
    mutable reads : int;
    mutable writes : int;
  }

  let make_state ~(mode : mode) n =
    {
      use_mem = mode <> `Comp_only;
      use_comp = mode <> `Mem_only;
      finish = Array.make n 0.0;
      busy = Hashtbl.create 256;
      hint = Hashtbl.create 8;
      occupancy = Hashtbl.create 64;
      bits = 0;
      reads = 0;
      writes = 0;
    }

  let find_slot st memid c0 occ =
    let h = Option.value ~default:0 (Hashtbl.find_opt st.hint memid) in
    let free c =
      let rec go k = k >= occ || ((not (Hashtbl.mem st.busy (memid, c + k))) && go (k + 1)) in
      go 0
    in
    let rec search c = if free c then c else search (c + 1) in
    let c = search (max c0 h) in
    for k = 0 to occ - 1 do
      Hashtbl.replace st.busy (memid, c + k) ()
    done;
    (* advance the hint past any now-full prefix when this fill touched it *)
    if c = h then begin
      let rec bump c = if Hashtbl.mem st.busy (memid, c) then bump (c + 1) else c in
      Hashtbl.replace st.hint memid (bump h)
    end;
    c

  let occupy st cls bucket c0 c1 =
    for c = c0 to c1 do
      let key = (cls, bucket, c) in
      Hashtbl.replace st.occupancy key
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.occupancy key))
    done

  let ready st preds =
    List.fold_left (fun acc p -> Float.max acc st.finish.(p)) 0.0 preds

  let boundary clk t =
    Float.of_int (int_of_float (Float.ceil ((t -. eps) /. clk))) *. clk

  let sched_op (p : profile) st id cls ~d ~bucket r =
    if not st.use_comp then st.finish.(id) <- r
    else begin
      let clk = p.device.Device.clock_ns in
      let free = d <= 1.0 in
      (* free operations (constant shifts, wiring) always chain *)
      let start =
        if free then r
        else if not p.chaining then boundary clk r
        else if d >= clk then boundary clk r
        else begin
          (* chain within the current cycle if the delay fits *)
          let cyc_start = Float.of_int (int_of_float (r /. clk)) *. clk in
          if r +. d <= cyc_start +. clk +. eps then r else boundary clk r
        end
      in
      let f = start +. d in
      st.finish.(id) <- f;
      if d > 0.5 then begin
        let c0 = int_of_float (start /. clk) in
        let c1 = int_of_float ((f -. eps) /. clk) in
        occupy st cls bucket c0 (max c0 c1)
      end
    end

  let sched_mem (p : profile) st id ~mem ~width ~is_read r =
    let clk = p.device.Device.clock_ns in
    if is_read then st.reads <- st.reads + 1 else st.writes <- st.writes + 1;
    st.bits <- st.bits + width;
    if not st.use_mem then st.finish.(id) <- r
    else begin
      let occ, lat =
        if is_read then (p.mem.Memory_model.read_occupancy, p.mem.Memory_model.read_latency)
        else (p.mem.Memory_model.write_occupancy, p.mem.Memory_model.write_latency)
      in
      let c0 = int_of_float (Float.ceil ((r -. eps) /. clk)) in
      let c = find_slot st mem c0 occ in
      st.finish.(id) <- Float.of_int (c + lat) *. clk
    end

  let finalize (p : profile) st : result =
    let clk = p.device.Device.clock_ns in
    let max_finish = Array.fold_left Float.max 0.0 st.finish in
    let cycles = int_of_float (Float.ceil ((max_finish -. eps) /. clk)) in
    (* Fold per-cycle occupancy into per-operator maxima. *)
    let usage : ((Op_model.op_class * int) * int) list =
      let tbl = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (cls, bucket, _) count ->
          let key = (cls, bucket) in
          let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (max cur count))
        st.occupancy;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort compare
    in
    { cycles = max cycles 0; bits_moved = st.bits; usage; reads = st.reads; writes = st.writes }

  let step (p : profile) st (node : Dfg.node) =
    let r = ready st node.preds in
    match node.kind with
    | Dfg.Source _ | Dfg.Move _ | Dfg.Move_out _ | Dfg.Reg_write _ ->
        st.finish.(node.id) <- r
    | Dfg.Op { cls; width; _ } ->
        sched_op p st node.id cls ~d:(Op_model.delay_ns cls ~width)
          ~bucket:(Op_model.width_bucket width) r
    | Dfg.Load { mem; width; _ } -> sched_mem p st node.id ~mem ~width ~is_read:true r
    | Dfg.Store { mem; width; _ } -> sched_mem p st node.id ~mem ~width ~is_read:false r

  let run ?(mode : mode = `Joint) (p : profile) (g : Dfg.t) : result =
    let st = make_state ~mode g.Dfg.len in
    for i = 0 to g.Dfg.len - 1 do
      step p st g.Dfg.nodes.(i)
    done;
    finalize p st
end

(* [run_tri] and every single-mode [run] equal the reference scheduler. *)
let matches_reference (p : Schedule.profile) (g : Dfg.t) : bool =
  let t = Schedule.run_tri p g in
  List.for_all
    (fun (mode, r) ->
      let expected = Reference.run ~mode p g in
      r = expected && Schedule.run ~mode p g = expected)
    [ (`Joint, t.Schedule.joint); (`Mem_only, t.Schedule.mem_only);
      (`Comp_only, t.Schedule.comp_only) ]

let prop_reference_random_blocks = random_block_satisfies matches_reference

(* Unrolled paper kernels without scalar replacement: the large blocks
   (hundreds of loads per memory) the estimator schedules on the joint
   sweep's [sr-] configurations. *)
let test_reference_unrolled_kernels () =
  List.iter
    (fun (name, u) ->
      let k = Option.get (Kernels.find name) in
      let vector =
        List.map (fun (l : Ast.loop) -> (l.Ast.index, u)) (Loop_nest.spine k.Ast.k_body)
      in
      let opts =
        Transform.Pipeline.apply_config ~base:Transform.Pipeline.default
          { vector; tile = None; scalar_replace = false; peel = false; licm = true }
      in
      let r = Transform.Pipeline.apply opts k in
      Alcotest.(check bool)
        (Printf.sprintf "%s u=%d matches reference" name u)
        true
        (blocks_satisfy matches_reference r.Transform.Pipeline.kernel))
    [ ("jac", 8); ("sobel", 6); ("fir", 8); ("mm", 4) ]

(* One block of 2,400 loads and 300 stores on memory 0 (plus a second
   memory) whose ready times arrive out of order: each access waits on
   an operator chain of pseudo-random depth, and some on earlier loads,
   so later accesses keep landing in gaps behind the busy frontier. With
   non-pipelined memories the 7-cycle read and 3-cycle write windows
   leave gaps narrower than a read, which only writes can fill. *)
let out_of_order_block () : Dfg.t =
  let nodes = ref [] and n = ref 0 in
  let add kind preds =
    let id = !n in
    nodes := { Dfg.id; kind; preds } :: !nodes;
    incr n;
    id
  in
  let op cls preds = add (Dfg.Op { sem = Dfg.Sbin Ast.Add; cls; width = 32 }) preds in
  let src = add (Dfg.Source (Dfg.Scalar "x")) [] in
  let depth = 64 in
  let chain = Array.make depth src in
  for d = 1 to depth - 1 do
    chain.(d) <- op Hls.Op_model.Add [ chain.(d - 1) ]
  done;
  let last_load = ref src in
  for i = 0 to 2699 do
    let wait = chain.(i * 37 mod depth) in
    let preds = if i mod 5 = 0 then [ wait; !last_load ] else [ wait ] in
    let mem = if i mod 11 = 0 then 1 else 0 in
    if i mod 9 = 4 then
      ignore
        (add
           (Dfg.Store
              { array = "o"; mem; width = 32; addr = src; value = !last_load; guards = [] })
           preds)
    else begin
      let l = add (Dfg.Load { array = "a"; mem; width = 32; addr = src }) preds in
      if i mod 3 = 0 then ignore (op Hls.Op_model.Mul [ l; wait ]);
      last_load := l
    end
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  { Dfg.nodes; len = Array.length nodes; fp = "" }

let test_reference_out_of_order () =
  let g = out_of_order_block () in
  let loads =
    Array.fold_left
      (fun acc (nd : Dfg.node) ->
        match nd.Dfg.kind with Dfg.Load { mem = 0; _ } -> acc + 1 | _ -> acc)
      0 g.Dfg.nodes
  in
  Alcotest.(check bool) (Printf.sprintf "%d loads on one memory" loads) true (loads >= 2000);
  List.iter
    (fun (p : Schedule.profile) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s chaining=%b matches reference"
           (Hls.Memory_model.name p.Schedule.mem) p.Schedule.chaining)
        true (matches_reference p g))
    sched_profiles

(* ------------------------------------------------------------------ *)
(* Admissibility: quick lower bounds never exceed the full estimate *)

let admissible (q : Quick.t) (e : Estimate.t) : bool =
  q.Quick.cycles_lb <= e.Estimate.cycles
  && q.Quick.mem_cycles_lb <= e.Estimate.mem_only_cycles
  && q.Quick.comp_cycles_lb <= e.Estimate.comp_only_cycles
  && q.Quick.slices_lb <= e.Estimate.slices

let prop_quick_admissible (k, v) =
  let ctx = Design.context k in
  match Design.quick ctx v with
  | None -> true
  | Some q ->
      let p = Design.evaluate ctx v in
      admissible q p.Design.estimate

let test_quick_admissible_paper_kernels () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let ctx = Design.context k in
      let sp = Space.sweep ~max_product:16 ~jobs:1 ctx in
      List.iter
        (fun (pt : Space.sweep_point) ->
          match Design.quick ctx pt.Space.config.Design.vector with
          | None -> Alcotest.fail (name ^ ": quick facts unavailable")
          | Some q ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s admissible" name
                   (Helpers.vector_to_string pt.Space.config.Design.vector))
                true
                (admissible q pt.Space.point.Design.estimate))
        sp.Space.points)
    paper_kernels

(* ------------------------------------------------------------------ *)
(* Pruned sweep: same selections, strictly fewer syntheses *)

let sweep_pair ?(jobs = 1) name ~max_product =
  let k = Option.get (Kernels.find name) in
  let full_ctx = Design.context k in
  let full = Space.sweep ~max_product ~jobs:1 full_ctx in
  let pruned_ctx = Design.context k in
  let pruned = Space.sweep ~max_product ~prune:true ~jobs pruned_ctx in
  (full_ctx, full, pruned_ctx, pruned)

let vec = function
  | Some (p : Space.sweep_point) -> Some p.Space.config.Design.vector
  | None -> None

let test_pruned_sweep name () =
  let full_ctx, full, pruned_ctx, pruned = sweep_pair name ~max_product:256 in
  (* accounting: every lattice point is either synthesized or pruned *)
  Alcotest.(check int)
    (name ^ " points partition")
    (List.length full.Space.points)
    (List.length pruned.Space.points + pruned.Space.pruned_bound);
  Alcotest.(check bool)
    (name ^ " some points pruned")
    true
    (pruned.Space.pruned_bound > 0);
  (* strictly fewer full syntheses than the exhaustive sweep *)
  let full_evals = (Design.stats_snapshot full_ctx).Design.evaluations in
  let pruned_evals = (Design.stats_snapshot pruned_ctx).Design.evaluations in
  Alcotest.(check bool)
    (Printf.sprintf "%s fewer syntheses (%d < %d)" name pruned_evals full_evals)
    true
    (pruned_evals < full_evals);
  (* identical selections under both criteria *)
  Alcotest.(check bool)
    (name ^ " same best fitting") true
    (vec (Space.best_fitting full_ctx full)
    = vec (Space.best_fitting pruned_ctx pruned));
  Alcotest.(check bool)
    (name ^ " same smallest comparable") true
    (vec (Space.smallest_comparable full_ctx full)
    = vec (Space.smallest_comparable pruned_ctx pruned))

(* The multi-domain pruned sweep shares its incumbent through a CAS:
   whichever points the domains' timing lets it skip, the selections
   match the exhaustive single-domain sweep's, every lattice point is
   either evaluated or pruned, and nothing is synthesized twice. *)
let test_parallel_pruned_sweep () =
  List.iter
    (fun name ->
      let full_ctx, full, par_ctx, par =
        sweep_pair ~jobs:3 name ~max_product:256
      in
      let evaluated = List.length par.Space.points in
      Alcotest.(check int)
        (name ^ " points + pruned = lattice")
        (List.length full.Space.points)
        (evaluated + par.Space.pruned_bound);
      Alcotest.(check int)
        (name ^ " evaluations = points")
        evaluated
        (Design.stats_snapshot par_ctx).Design.evaluations;
      Alcotest.(check bool)
        (name ^ " same best fitting") true
        (vec (Space.best_fitting full_ctx full)
        = vec (Space.best_fitting par_ctx par));
      Alcotest.(check bool)
        (name ^ " same smallest comparable") true
        (vec (Space.smallest_comparable full_ctx full)
        = vec (Space.smallest_comparable par_ctx par));
      (* The incumbent never drops below the best fitting design, so
         every skipped point's bounds rule it out against that design. *)
      let best =
        Design.cycles (Option.get (Space.best_fitting full_ctx full)).Space.point
      in
      let limit = int_of_float (Float.ceil (float_of_int best *. 1.05)) in
      List.iter
        (fun (sp : Space.sweep_point) ->
          if
            not
              (List.exists
                 (fun (e : Space.sweep_point) ->
                   e.Space.config.Design.vector = sp.Space.config.Design.vector)
                 par.Space.points)
          then
            match Design.quick full_ctx sp.Space.config.Design.vector with
            | None -> Alcotest.fail (name ^ ": quick facts unavailable")
            | Some q ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s pruned soundly" name
                     (Helpers.vector_to_string sp.Space.config.Design.vector))
                  true
                  (q.Quick.slices_lb > full_ctx.Design.capacity
                  || q.Quick.cycles_lb > limit))
        full.Space.points;
      (* The joint sweep runs the same loop: against the [full] backend,
         which has no bound tier and so evaluates every survivor. *)
      let k = Option.get (Kernels.find name) in
      let ex_ctx = Design.context ~backend:Engine.Backend.full k in
      let ex = Space.sweep_joint ~max_product:16 ~jobs:1 ex_ctx in
      let jpar_ctx = Design.context k in
      let jpar = Space.sweep_joint ~max_product:16 ~jobs:3 jpar_ctx in
      let evaluated = List.length jpar.Space.points in
      Alcotest.(check int)
        (name ^ " joint: evaluated + pruned = survivors")
        (List.length ex.Space.points)
        (evaluated + jpar.Space.pruned_bound);
      Alcotest.(check int)
        (name ^ " joint: evaluations = points")
        evaluated
        (Design.stats_snapshot jpar_ctx).Design.evaluations;
      let cfg o =
        Option.map (fun (p : Space.joint_point) -> p.Space.config) o
      in
      Alcotest.(check bool)
        (name ^ " joint: same selection")
        true
        (cfg (Space.joint_best ex_ctx ex)
        = cfg (Space.joint_best jpar_ctx jpar)))
    [ "fir"; "mm"; "jac" ]

(* ------------------------------------------------------------------ *)
(* Search: the tier-1 capacity gate *)

let test_search_capacity_gate () =
  let k = Option.get (Kernels.find "fir") in
  let ctx = Design.context k in
  (* a budget below the kernel's analytical area floor: every unrolled
     candidate is rejected by tier 1 alone, and the search must fall all
     the way back to the base design without a single wasted synthesis *)
  let floor =
    match Design.quick ctx (Design.ubase ctx) with
    | Some q -> q.Quick.slices_lb
    | None -> Alcotest.fail "quick facts unavailable for fir"
  in
  let ctx = { ctx with Design.capacity = floor - 1 } in
  let r = Search.run ctx in
  Alcotest.(check bool) "points pruned" true (r.Search.stats.Design.pruned > 0);
  Alcotest.(check bool) "falls back to ubase" true
    (Design.vector_equal r.Search.selected.Design.vector (Design.ubase ctx));
  Alcotest.(check int) "only the fallback synthesized" 1
    r.Search.stats.Design.evaluations

let test_search_selection_unchanged_by_gate () =
  (* at the real device capacity the tier-1 gate may skip syntheses but
     never changes the selected design: re-run search on a fresh context
     and compare with the estimator's verdict on the selected vector *)
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let ctx = Design.context k in
      let r = Search.run ctx in
      let sel = r.Search.selected in
      Alcotest.(check bool)
        (name ^ " selected fits") true
        (Design.space sel <= ctx.Design.capacity))
    paper_kernels

(* ------------------------------------------------------------------ *)
(* normalize_vector: divisor-table lookup == linear downward scan *)

let gen_kernel_and_vector : (Ast.kernel * (string * int) list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* k = Helpers.gen_kernel in
  let* v = Helpers.gen_vector_for k in
  (* occasionally push factors past the trip count to exercise clamping *)
  let* scaled = list_repeat (List.length v) (int_range 1 2) in
  return (k, List.map2 (fun (i, u) s -> (i, u * s)) v scaled)

let prop_normalize_matches_scan (k, v) =
  let ctx = Design.context k in
  let n = Design.normalize_vector ctx v in
  let spine = Loop_nest.spine k.Ast.k_body in
  List.length n = List.length spine
  && List.for_all2
       (fun (l : Ast.loop) (i, u) ->
         let trip = Ast.loop_trip l in
         let req =
           match List.assoc_opt l.Ast.index v with Some x -> x | None -> 1
         in
         let clamped = max 1 (min req trip) in
         let rec down d = if trip mod d = 0 then d else down (d - 1) in
         String.equal i l.Ast.index && u = down clamped)
       spine n

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "quick"
    [
      ( "tri-scheduler",
        [
          Alcotest.test_case "paper kernels, source and transformed" `Quick
            test_tri_paper_kernels;
          Helpers.qtest "random blocks: run_tri == three runs" ~count:100
            gen_block prop_tri_random_blocks;
        ] );
      ( "ref-scheduler",
        [
          Helpers.qtest "random blocks: run_tri and run == reference"
            ~count:200 gen_block prop_reference_random_blocks;
          Alcotest.test_case "unrolled kernels without scalar replacement"
            `Quick test_reference_unrolled_kernels;
          Alcotest.test_case "2,000+ out-of-order loads on one memory" `Quick
            test_reference_out_of_order;
        ] );
      ( "admissibility",
        [
          Helpers.qtest "random kernels and vectors" ~count:60
            gen_kernel_and_vector prop_quick_admissible;
          Alcotest.test_case "paper kernels, full lattice" `Quick
            test_quick_admissible_paper_kernels;
        ] );
      ( "pruned sweep",
        [
          Alcotest.test_case "fir: same selection, fewer syntheses" `Quick
            (test_pruned_sweep "fir");
          Alcotest.test_case "mm: same selection, fewer syntheses" `Quick
            (test_pruned_sweep "mm");
          Alcotest.test_case "jobs 3 selects like exhaustive jobs 1" `Quick
            test_parallel_pruned_sweep;
        ] );
      ( "search",
        [
          Alcotest.test_case "capacity gate prunes to base" `Quick
            test_search_capacity_gate;
          Alcotest.test_case "selection fits at device capacity" `Quick
            test_search_selection_unchanged_by_gate;
        ] );
      ( "normalize",
        [
          Helpers.qtest "divisor table matches downward scan" ~count:100
            gen_kernel_and_vector prop_normalize_matches_scan;
        ] );
    ]
