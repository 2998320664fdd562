(** Iterative gen/kill dataflow solver over CFGs given as a node count and
    an edge list, with {!Bitset} facts, solved per region.

    The paper's Algorithm 1 (may-dead / must-dead / may-live) and Algorithm 2
    (last-write), as well as the first-read/first-write placement analyses,
    are all instances of this solver with different directions, meets and
    gen/kill sets. *)

type direction = Forward | Backward

type meet = Union | Intersect

type spec = {
  direction : direction;
  meet : meet;
  width : int;
  top : Bitset.t;
  gen : int list array;
  kill : int list array;
  reset : bool array;
}

(* Adjacency in one flat array: the neighbours of [v] are [src.(off.(v))
   .. src.(off.(v + 1) - 1)]. *)
type adjacency = { off : int array; src : int array }

(* Region [k] holds the nodes [first.(k) .. first.(k + 1) - 1]; an edge
   leaving a region runs from region [k] into node [first.(k + 1)], so the
   regions form a chain.  [cyclic.(k)]: region [k] has an edge back to a
   node at or before its source. *)
type plan = {
  region : int array;
  first : int array;
  cyclic : bool array;
  preds : adjacency;
  succs : adjacency;
}

(* Each edge [e] lists [neighbour e] among the neighbours of [node e]. *)
let adjacency n edges ~node ~neighbour =
  let off = Array.make (n + 1) 0 in
  List.iter (fun e -> off.(node e + 1) <- off.(node e + 1) + 1) edges;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let src = Array.make off.(n) 0 and next = Array.sub off 0 n in
  List.iter
    (fun e ->
      let v = node e in
      src.(next.(v)) <- neighbour e;
      next.(v) <- next.(v) + 1)
    edges;
  { off; src }

(* Does every node lie on a path from [root] along [adj]?  [stack] has a
   slot per node. *)
let spans n adj root stack =
  let seen = Bytes.make n '\000' in
  Bytes.set seen root '\001';
  stack.(0) <- root;
  let top = ref 1 and count = ref 1 in
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    for k = adj.off.(v) to adj.off.(v + 1) - 1 do
      let s = adj.src.(k) in
      if Bytes.get seen s = '\000' then begin
        Bytes.set seen s '\001';
        incr count;
        stack.(!top) <- s;
        incr top
      end
    done
  done;
  !count = n

(* Boundary [c] lies between nodes [c - 1] and [c]; it is a cut when every
   edge crossing it enters [c].  [cover.(c)] counts the other crossing
   edges, as a running sum of +1 at each edge's first covered boundary and
   -1 past its last. *)
let plan n edges =
  let preds = adjacency n edges ~node:snd ~neighbour:fst
  and succs = adjacency n edges ~node:fst ~neighbour:snd in
  let cover = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    for k = succs.off.(u) to succs.off.(u + 1) - 1 do
      let v = succs.src.(k) in
      let lo = if u < v then u + 1 else v + 1 in
      let past = if u < v then v else u + 1 in
      if lo < past then begin
        cover.(lo) <- cover.(lo) + 1;
        cover.(past) <- cover.(past) - 1
      end
    done
  done;
  let exact =
    n > 1
    && preds.off.(1) = 0
    && succs.off.(n) = succs.off.(n - 1)
    &&
    let stack = Array.make n 0 in
    spans n succs 0 stack && spans n preds (n - 1) stack
  in
  let region = Array.make n 0 and first = ref [ 0 ] and sum = ref 0 in
  for c = 1 to n - 1 do
    sum := !sum + cover.(c);
    region.(c) <- region.(c - 1);
    if exact && !sum = 0 then begin
      first := c :: !first;
      region.(c) <- region.(c) + 1
    end
  done;
  let first = Array.of_list (List.rev (n :: !first)) in
  let cyclic = Array.make (Array.length first - 1) false in
  for u = 0 to n - 1 do
    for k = succs.off.(u) to succs.off.(u + 1) - 1 do
      if succs.src.(k) <= u then cyclic.(region.(u)) <- true
    done
  done;
  { region; first; cyclic; preds; succs }

let regions p = Array.length p.first - 1

(* A dense solve over the nodes [a .. b]: node [v]'s output is row [v - a]
   of [rows] ([w] words each), and row [b - a + 1] is the constant fact
   each source outside [a .. b] feeds in. *)
type block = {
  a : int;
  b : int;
  w : int;
  rows : int array;
  meet : meet;
  srcs : adjacency;
}

let block plan (spec : spec) ~a ~b ~init ~const =
  let w = Array.length init and m = b - a + 1 in
  let rows = Array.make ((m + 1) * w) 0 in
  for r = 0 to m - 1 do
    Array.blit init 0 rows (r * w) w
  done;
  Array.blit const 0 rows (m * w) w;
  { a; b; w; rows; meet = spec.meet;
    srcs =
      (match spec.direction with
      | Forward -> plan.preds
      | Backward -> plan.succs) }

let row_of blk s =
  if s < blk.a || s > blk.b then blk.b - blk.a + 1 else s - blk.a

let source_word blk k j = blk.rows.((row_of blk blk.srcs.src.(k) * blk.w) + j)

(* Word [j] of the meet of [v]'s sources' rows; empty without sources. *)
let input_word blk v j =
  let lo = blk.srcs.off.(v) and hi = blk.srcs.off.(v + 1) in
  if lo = hi then 0
  else begin
    let acc = ref (source_word blk lo j) in
    (match blk.meet with
    | Union ->
        for k = lo + 1 to hi - 1 do
          acc := !acc lor source_word blk k j
        done
    | Intersect ->
        for k = lo + 1 to hi - 1 do
          acc := !acc land source_word blk k j
        done);
    !acc
  end

let has bits l = bits.(Bitset.word l) land Bitset.mask l <> 0

let rec clear_bits out local = function
  | [] -> ()
  | i :: rest ->
      let l = local.(i) in
      out.(Bitset.word l) <- out.(Bitset.word l) land lnot (Bitset.mask l);
      clear_bits out local rest

let rec set_bits out local = function
  | [] -> ()
  | i :: rest ->
      let l = local.(i) in
      out.(Bitset.word l) <- out.(Bitset.word l) lor Bitset.mask l;
      set_bits out local rest

(* Meet, transfer and compare word by word into [out]; did [v]'s row
   change?  [gen] and [kill] list global bits, [local] renumbers them into
   the block's words. *)
let visit blk out v ~gen ~kill ~reset ~local =
  let w = blk.w in
  if reset then Array.fill out 0 w 0
  else begin
    for j = 0 to w - 1 do
      out.(j) <- input_word blk v j
    done;
    clear_bits out local kill
  end;
  set_bits out local gen;
  let base = (v - blk.a) * w and moved = ref false in
  for j = 0 to w - 1 do
    if out.(j) <> blk.rows.(base + j) then begin
      blk.rows.(base + j) <- out.(j);
      moved := true
    end
  done;
  !moved

(* Solve the regions [lo .. hi] one at a time in flow order, which no
   fact flows back against, each by sweeps over its nodes in id order
   (backward: descending) until a sweep changes no row.  Rows start at
   [top] (Intersect) or empty (Union) and the transfers are monotone, so
   each bit's facts move one way only and the sweeps stop at the same
   fixpoint in any visiting order.  In a region without a loop every edge
   runs forward in id order, so its first sweep visits each node after
   its sources and is final. *)
let run plan direction blk ~lo ~hi ~gen ~kill ~reset ~local =
  let out = Array.make blk.w 0 in
  let sweep k =
    let moved = ref false in
    (match direction with
    | Forward ->
        for v = plan.first.(k) to plan.first.(k + 1) - 1 do
          if visit blk out v ~gen:(gen v) ~kill:(kill v) ~reset:reset.(v) ~local
          then moved := true
        done
    | Backward ->
        for v = plan.first.(k + 1) - 1 downto plan.first.(k) do
          if visit blk out v ~gen:(gen v) ~kill:(kill v) ~reset:reset.(v) ~local
          then moved := true
        done);
    !moved
  in
  let solve k = while sweep k && plan.cyclic.(k) do () done in
  match direction with
  | Forward ->
      for k = lo to hi do
        solve k
      done
  | Backward ->
      for k = hi downto lo do
        solve k
      done

(* Word [j] of the fact crossing from region [k] into the next one in flow
   order: the meet of the outputs entering node [first.(k + 1)] from
   region [k] (forward), or node [first.(k)]'s output (backward). *)
let crossing plan direction blk k j =
  match direction with
  | Backward -> blk.rows.(((plan.first.(k) - blk.a) * blk.w) + j)
  | Forward ->
      let c = plan.first.(k + 1) in
      let acc = ref (match blk.meet with Union -> 0 | Intersect -> -1) in
      for e = plan.preds.off.(c) to plan.preds.off.(c + 1) - 1 do
        let p = plan.preds.src.(e) in
        if p < c then begin
          let x = blk.rows.(((p - blk.a) * blk.w) + j) in
          acc :=
            match blk.meet with Union -> !acc lor x | Intersect -> !acc land x
        end
      done;
      !acc

(* A group: the bits whose gen/kill touch the regions [lo .. hi] and no
   other, solved densely over those regions' nodes with the empty fact
   flowing in.  [out] is the fact that flows out of it: into region
   [hi + 1] (forward) or from its first node into region [lo - 1]
   (backward); no words when no region follows. *)
type group = { lo : int; hi : int; blk : block; out : int array }

(* The solved facts.  A bit outside every group is empty everywhere; a
   bit's fact outside its own group is the group's outflow carried through
   the regions after it in flow order, where [pass] — per region, a
   one-bit flow with the full fact flowing in, no gen/kill and the resets
   — says whether it survives.  Bit 0 of a flow starts full, as [Union]'s
   facts do in effect and those of a bit set in [top]; bit 1, under
   [Intersect], starts empty, as a bit clear in [top] does, which any loop
   then clears.  A region's flow is solved only where it may not be the
   full fact everywhere: with a reset or, when some bit starts clear, a
   loop; elsewhere it is [None].  [pass] and [closed] are empty when no
   group has regions after it or no region's flow is solved;
   [closed.(var).(k)] counts the boundaries before region [k] that
   [var]'s flow does not cross. *)
type result = {
  plan : plan;
  spec : spec;
  group_of : int array;
  local : int array;
  groups : group array;
  pass : block option array;
  closed : int array array;
}

(* Each bit's first and last touched region, [lo] and [hi], updated by
   the gen/kill list of one node in region [r]. *)
let rec touch lo hi r = function
  | [] -> ()
  | i :: rest ->
      if lo.(i) < 0 then lo.(i) <- r;
      hi.(i) <- r;
      touch lo hi r rest

(* Bits into groups: each bit's run of regions (all of the one region when
   there is only one), runs merged where they overlap.  Returns each bit's
   group (-1 when no gen/kill touches it) and its bit within the group,
   and the groups' runs and sizes in bits. *)
let group_bits plan spec =
  let nreg = regions plan and width = spec.width in
  let group_of = Array.make width (if nreg = 1 then 0 else -1) in
  let local = Array.make width (if nreg = 1 then 0 else -1) in
  if nreg > 1 then
    for v = 0 to Array.length plan.region - 1 do
      touch group_of local plan.region.(v) spec.gen.(v);
      touch group_of local plan.region.(v) spec.kill.(v)
    done;
  (* [group_of] and [local] hold each bit's first and last region; [reach]
     the furthest last region of the bits starting at a region, turned
     into the group of each region in place. *)
  let reach = Array.make nreg (-1) in
  for i = 0 to width - 1 do
    let lo = group_of.(i) in
    if lo >= 0 then reach.(lo) <- max reach.(lo) local.(i)
  done;
  let runs = ref [] and count = ref 0 in
  let run_lo = ref 0 and run_hi = ref (-1) in
  for r = 0 to nreg - 1 do
    if reach.(r) >= 0 then begin
      if r > !run_hi then begin
        if !run_hi >= 0 then runs := (!run_lo, !run_hi) :: !runs;
        incr count;
        run_lo := r
      end;
      run_hi := max !run_hi reach.(r)
    end;
    reach.(r) <- (if r <= !run_hi then !count - 1 else -1)
  done;
  if !run_hi >= 0 then runs := (!run_lo, !run_hi) :: !runs;
  let sizes = Array.make !count 0 in
  for i = 0 to width - 1 do
    let lo = group_of.(i) in
    if lo >= 0 then begin
      let g = reach.(lo) in
      group_of.(i) <- g;
      local.(i) <- sizes.(g);
      sizes.(g) <- sizes.(g) + 1
    end
  done;
  (group_of, local, Array.of_list (List.rev !runs), sizes)

let solve plan spec =
  let nreg = regions plan in
  let group_of, local, runs, sizes = group_bits plan spec in
  let top = (spec.top :> int array) in
  let inits = Array.map (fun size -> Array.make (Bitset.words size) 0) sizes in
  if spec.meet = Intersect then
    Array.iteri
      (fun i g ->
        if g >= 0 && has top i then begin
          let init = inits.(g) and l = local.(i) in
          init.(Bitset.word l) <- init.(Bitset.word l) lor Bitset.mask l
        end)
      group_of;
  let gen = Array.get spec.gen and kill = Array.get spec.kill in
  let groups =
    Array.mapi
      (fun g (lo, hi) ->
        let init = inits.(g) in
        let w = Array.length init in
        let a = plan.first.(lo) and b = plan.first.(hi + 1) - 1 in
        let blk =
          block plan spec ~a ~b ~init ~const:(Array.make w 0)
        in
        run plan spec.direction blk ~lo ~hi ~gen ~kill ~reset:spec.reset ~local;
        let out =
          match spec.direction with
          | Forward when hi + 1 < nreg ->
              Array.init w (crossing plan Forward blk hi)
          | Backward when lo > 0 -> Array.init w (crossing plan Backward blk lo)
          | Forward | Backward -> [||]
        in
        { lo; hi; blk; out })
      runs
  in
  (* The regions whose one-bit flow may not be the full fact everywhere:
     those with a reset, and those with a loop when some bit starts
     clear.  None are needed when no group has regions after it. *)
  let some_clear =
    spec.meet = Intersect
    &&
    let rec clear i =
      i < spec.width
      && ((group_of.(i) >= 0 && not (has top i)) || clear (i + 1))
    in
    clear 0
  in
  let solved = ref [||] in
  let mark k =
    if Array.length !solved = 0 then solved := Array.make nreg false;
    !solved.(k) <- true
  in
  if Array.exists (fun g -> Array.length g.out > 0) groups then begin
    if some_clear then Array.iteri (fun k c -> if c then mark k) plan.cyclic;
    Array.iteri (fun v r -> if r then mark plan.region.(v)) spec.reset
  end;
  let full, start =
    match spec.meet with Union -> (1, 0) | Intersect -> (3, 1)
  in
  let pass =
    Array.mapi
      (fun k solve ->
        if not solve then None
        else begin
          let a = plan.first.(k) and b = plan.first.(k + 1) - 1 in
          let blk = block plan spec ~a ~b ~init:[| start |] ~const:[| full |] in
          run plan spec.direction blk ~lo:k ~hi:k
            ~gen:(fun _ -> [])
            ~kill:(fun _ -> [])
            ~reset:spec.reset ~local:[||];
          Some blk
        end)
      !solved
  in
  let closed =
    if Array.length pass = 0 then [||]
    else begin
      let vars = match spec.meet with Union -> 1 | Intersect -> 2 in
      let closed = Array.make_matrix vars (nreg + 1) 0 in
      Array.iteri
        (fun k flow ->
          let through =
            match (flow, spec.direction) with
            | Some blk, Forward when k + 1 < nreg ->
                crossing plan Forward blk k 0
            | Some blk, Backward when k > 0 -> crossing plan Backward blk k 0
            | _ -> -1
          in
          for var = 0 to vars - 1 do
            closed.(var).(k + 1) <-
              (closed.(var).(k) + if through land (1 lsl var) = 0 then 1 else 0)
          done)
        pass;
      closed
    end
  in
  { plan; spec; group_of; local; groups; pass; closed }

(* Bit [i] at the input of node [v] in region [k], outside its group
   [grp]: empty before the group in flow order; after it, the group's
   outflow if every boundary on the way and [v]'s own region let it
   through, in the one-bit flow from [top] or from empty. *)
let beyond r grp i v k =
  let var =
    match r.spec.meet with
    | Intersect when not (has (r.spec.top :> int array) i) -> 1
    | Union | Intersect -> 0
  in
  let open_between x y =
    Array.length r.closed = 0 || r.closed.(var).(y) = r.closed.(var).(x)
  in
  (match r.spec.direction with
  | Forward -> k > grp.hi && open_between (grp.hi + 1) k
  | Backward -> k < grp.lo && open_between (k + 1) grp.lo)
  && has grp.out r.local.(i)
  && (Array.length r.pass = 0
     ||
     match r.pass.(k) with
     | None -> true
     | Some flow -> input_word flow v 0 land (1 lsl var) <> 0)

let mem_input r v i =
  let g = r.group_of.(i) in
  g >= 0
  &&
  let grp = r.groups.(g) and k = r.plan.region.(v) in
  if k >= grp.lo && k <= grp.hi then
    let l = r.local.(i) in
    input_word grp.blk v (Bitset.word l) land Bitset.mask l <> 0
  else beyond r grp i v k

let mem_output r v i =
  let g = r.group_of.(i) in
  g >= 0
  &&
  let grp = r.groups.(g) and k = r.plan.region.(v) in
  if k >= grp.lo && k <= grp.hi then
    let l = r.local.(i) and blk = grp.blk in
    blk.rows.(((v - blk.a) * blk.w) + Bitset.word l) land Bitset.mask l <> 0
  else beyond r grp i v k && not r.spec.reset.(v)

let stored_words r =
  Array.fold_left
    (fun acc flow ->
      match flow with Some blk -> acc + Array.length blk.rows | None -> acc)
    (Array.fold_left
       (fun acc g -> acc + Array.length g.blk.rows + Array.length g.out)
       0 r.groups)
    r.pass
