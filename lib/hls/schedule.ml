(** As-Soon-As-Possible scheduling of one block's DFG under memory-port
    and clock-period constraints — the estimator's stand-in for Monet's
    scheduler (the paper names Monet's algorithm ASAP, Section 5.2).

    Operations chain combinationally within the 40 ns cycle as long as
    their accumulated delay fits; memory operations are issued at cycle
    boundaries, at most one unposted access per memory per occupancy
    window. Two relaxed modes serve the balance metric: [`Mem_only]
    ignores computation (the rate at which the memories could supply
    data) and [`Comp_only] ignores memory constraints (the rate at which
    the datapath could consume it).

    The estimator needs all three schedules of every block; {!run_tri}
    produces them in a single walk over the node array (one traversal,
    one operator-class/delay lookup per node) instead of three separate
    {!run} calls. Both entry points share the same per-node scheduling
    helpers, so their results are identical by construction.

    Per-cycle state is array-backed, so a block schedules in time
    near-linear in its node count plus the cycles its operators span:
    each memory keeps union-find skip pointers over start cycles that
    answer "first free window at or after the ready cycle" in amortised
    near-constant time however many accesses queue ahead (a block of
    an unrolled stencil without scalar replacement holds thousands of
    loads per memory, most ready long before a port frees up), and each
    operator class/width bucket keeps a row of per-cycle counts with its
    running peak. *)

type mode = [ `Joint | `Mem_only | `Comp_only ]

type profile = {
  device : Device.t;
  mem : Memory_model.t;
  chaining : bool;
      (** allow several dependent operators to share one clock cycle when
          their delays fit the period. Monet-generation tools scheduled
          essentially one operation level per control step, so the
          paper-faithful default is [false]; modern HLS chains freely. *)
}

type result = {
  cycles : int;
  bits_moved : int;
  usage : ((Op_model.op_class * int) * int) list;
      (** operator class/width-bucket -> max per-cycle concurrency;
          the allocation a behavioral synthesis binder would need *)
  reads : int;
  writes : int;
}

let eps = 1e-6

(* Memory ports. A memory accepts one access per occupancy window: a
   read holds its port for [read_occupancy] consecutive cycles, a write
   for [write_occupancy]. An access ready at cycle [c0] issues at the
   first [c >= c0] whose window [c, c + occ) is entirely free (first
   fit; earlier gaps stay usable by later, earlier-ready accesses).

   Each memory keeps, per distinct window width [w], a union-find over
   start cycles: [s] is its own root while [s, s + w) is free and links
   to a later cycle once any cycle of that window is busy. Busy cycles
   never become free again, so a dead start stays dead, and the first
   fit at or after [c0] is simply the root of [c0] — near-constant
   amortised time with path halving, where a cycle-by-cycle scan would
   rescan the whole busy run ahead of every access. The arrays grow on
   demand (new slots are their own roots); a start beyond an array's
   end is free. *)

let rec root (link : int array) s =
  if s >= Array.length link then s
  else
    let p = Array.unsafe_get link s in
    if p = s then s
    else begin
      let pp = if p < Array.length link then Array.unsafe_get link p else p in
      Array.unsafe_set link s pp;
      root link pp
    end

(* [a] grown (at least doubling) to cover index [i]; a new slot [s]
   holds [fresh s]. *)
let cover fresh a i =
  let n = Array.length a in
  if i < n then a
  else begin
    let a' = Array.init (max (i + 1) (2 * n)) fresh in
    Array.blit a 0 a' 0 n;
    a'
  end

(* Per-cycle concurrency of one operator class/width bucket; [peak] is
   the running maximum of [counts]. *)
type row = {
  cls : Op_model.op_class;
  bucket : int;
  mutable counts : int array;
  mutable peak : int;
}

(* One mode's scheduling state: finish times plus the port allocators
   and operator rows its constraints need. The three modes never share
   state, which is what lets [run_tri] advance all of them through a
   single node-array walk. *)
type state = {
  use_mem : bool;
  use_comp : bool;
  finish : float array;
  widths : int array;
      (* the distinct window widths: read occupancy, then write
         occupancy when it differs *)
  mutable links : int array array;
      (* start-cycle union-find of memory [m], width [k] at
         [m * Array.length widths + k] *)
  mutable rows : row list;
  mutable bits : int;
  mutable reads : int;
  mutable writes : int;
}

let make_state (p : profile) ~(mode : mode) n =
  let r = p.mem.Memory_model.read_occupancy
  and w = p.mem.Memory_model.write_occupancy in
  {
    use_mem = mode <> `Comp_only;
    use_comp = mode <> `Mem_only;
    finish = Array.make n 0.0;
    widths = (if r = w then [| r |] else [| r; w |]);
    links = [||];
    rows = [];
    bits = 0;
    reads = 0;
    writes = 0;
  }

(* Issue an access occupying [occ] cycles on memory [memid], ready at
   cycle [c0]; [k] indexes [occ] in [st.widths]. Returns the issue
   cycle and marks its window busy: under every tracked width [w], the
   starts [c - w + 1 .. c + occ - 1] now overlap a busy cycle, so each
   links past the window's end. *)
let find_slot st memid ~k c0 occ =
  let nw = Array.length st.widths in
  let base = memid * nw in
  st.links <- cover (fun _ -> [||]) st.links (base + nw - 1);
  let c = root st.links.(base + k) (max 0 c0) in
  let last = c + occ - 1 in
  for j = 0 to nw - 1 do
    let link = cover Fun.id st.links.(base + j) last in
    for s = max 0 (c - st.widths.(j) + 1) to last do
      if Array.unsafe_get link s <= last then Array.unsafe_set link s (last + 1)
    done;
    st.links.(base + j) <- link
  done;
  c

let occupy st cls bucket c0 c1 =
  let row =
    match List.find_opt (fun r -> r.cls = cls && r.bucket = bucket) st.rows with
    | Some row -> row
    | None ->
        let row = { cls; bucket; counts = [||]; peak = 0 } in
        st.rows <- row :: st.rows;
        row
  in
  let counts = cover (fun _ -> 0) row.counts c1 in
  row.counts <- counts;
  for c = c0 to c1 do
    let v = counts.(c) + 1 in
    counts.(c) <- v;
    if v > row.peak then row.peak <- v
  done

let ready st preds =
  List.fold_left (fun acc p -> Float.max acc st.finish.(p)) 0.0 preds

let boundary clk t =
  Float.of_int (int_of_float (Float.ceil ((t -. eps) /. clk))) *. clk

(* Per-node scheduling of one mode, shared verbatim by [run] and
   [run_tri]. Each takes the node's ready time [r] under that mode. *)

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
    let occ, lat, k =
      if is_read then
        (p.mem.Memory_model.read_occupancy, p.mem.Memory_model.read_latency, 0)
      else
        ( p.mem.Memory_model.write_occupancy,
          p.mem.Memory_model.write_latency,
          Array.length st.widths - 1 )
    in
    let c0 = int_of_float (Float.ceil ((r -. eps) /. clk)) in
    let c = find_slot st mem ~k c0 occ in
    st.finish.(id) <- Float.of_int (c + lat) *. clk
  end

let finalize (p : profile) st : result =
  let clk = p.device.Device.clock_ns in
  let max_finish = Array.fold_left Float.max 0.0 st.finish in
  let cycles = int_of_float (Float.ceil ((max_finish -. eps) /. clk)) in
  let usage : ((Op_model.op_class * int) * int) list =
    List.map (fun r -> ((r.cls, r.bucket), r.peak)) st.rows |> List.sort compare
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
  let st = make_state p ~mode g.Dfg.len in
  for i = 0 to g.Dfg.len - 1 do
    step p st g.Dfg.nodes.(i)
  done;
  finalize p st

type tri = { joint : result; mem_only : result; comp_only : result }

(* ------------------------------------------------------------------ *)
(* Content-addressed tri-schedule memo.

   [run_tri] is a pure function of the graph's schedule-relevant
   projection and the profile; {!Dfg.fingerprint} is injective on that
   projection, so a fingerprint -> tri table keyed by it is an *exact*
   memo: a hit returns the very record a fresh run would compute.
   Unrolled bodies repeat block shapes (iteration-shifted copies, peeled
   and guard-specialised bodies of the same size), which is where hits
   come from.

   One table serves one profile (the {!Design} context that owns it
   fixes the profile for its lifetime); tables are copied into domain
   forks and merged back with {!memo_absorb}, never shared across
   domains. *)

type memo = (string, tri) Hashtbl.t

let memo_create () : memo = Hashtbl.create 256
let memo_copy (m : memo) : memo = Hashtbl.copy m
let memo_size (m : memo) : int = Hashtbl.length m

let memo_absorb ~(into : memo) (forked : memo) : unit =
  Hashtbl.iter
    (fun fp tri -> if not (Hashtbl.mem into fp) then Hashtbl.replace into fp tri)
    forked

(* Advance all three modes over node [i] of [g]. One walk: the node kind
   is matched and the operator delay/bucket looked up once, then each
   mode advances on its own state (ready times genuinely differ per
   mode, so they are computed per state). *)
let tri_step (p : profile) j m c (node : Dfg.node) =
  match node.kind with
  | Dfg.Source _ | Dfg.Move _ | Dfg.Move_out _ | Dfg.Reg_write _ ->
      j.finish.(node.id) <- ready j node.preds;
      m.finish.(node.id) <- ready m node.preds;
      c.finish.(node.id) <- ready c node.preds
  | Dfg.Op { cls; width; _ } ->
      let d = Op_model.delay_ns cls ~width in
      let bucket = Op_model.width_bucket width in
      sched_op p j node.id cls ~d ~bucket (ready j node.preds);
      m.finish.(node.id) <- ready m node.preds;
      sched_op p c node.id cls ~d ~bucket (ready c node.preds)
  | Dfg.Load { mem; width; _ } ->
      sched_mem p j node.id ~mem ~width ~is_read:true (ready j node.preds);
      sched_mem p m node.id ~mem ~width ~is_read:true (ready m node.preds);
      sched_mem p c node.id ~mem ~width ~is_read:true (ready c node.preds)
  | Dfg.Store { mem; width; _ } ->
      sched_mem p j node.id ~mem ~width ~is_read:false (ready j node.preds);
      sched_mem p m node.id ~mem ~width ~is_read:false (ready m node.preds);
      sched_mem p c node.id ~mem ~width ~is_read:false (ready c node.preds)

let run_tri (p : profile) (g : Dfg.t) : tri =
  let n = g.Dfg.len in
  let j = make_state p ~mode:`Joint n in
  let m = make_state p ~mode:`Mem_only n in
  let c = make_state p ~mode:`Comp_only n in
  for i = 0 to n - 1 do
    tri_step p j m c g.Dfg.nodes.(i)
  done;
  { joint = finalize p j; mem_only = finalize p m; comp_only = finalize p c }

(** Memoized {!run_tri}: a fingerprint hit returns the stored record
    (no scheduling), a miss schedules and records. The flag reports a
    hit. Either way the result equals a fresh {!run_tri} bit for bit. *)
let run_tri_memo (memo : memo) (p : profile) (g : Dfg.t) : tri * bool =
  let fp = Dfg.fingerprint g in
  match Hashtbl.find_opt memo fp with
  | Some tri -> (tri, true)
  | None ->
      let tri = run_tri p g in
      Hashtbl.replace memo fp tri;
      (tri, false)
