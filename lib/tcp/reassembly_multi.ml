type t = {
  mutable next : Seq32.t;
  mutable ivs : (Seq32.t * int) list;  (* disjoint, ascending *)
}

let create ~next = { next; ivs = [] }
let next t = t.next
let intervals t = t.ivs

type outcome =
  | Accept of { trim : int; len : int; advance : int }
  | Ooo_accept of { trim : int; off : int; len : int }
  | Duplicate
  | Drop_out_of_window

(* Insert [s, e) into the interval set, coalescing overlaps. *)
let insert t s e =
  let rec go = function
    | [] -> [ (s, Seq32.diff e s) ]
    | (is, il) :: rest ->
        let ie = Seq32.add is il in
        if Seq32.lt e is then (s, Seq32.diff e s) :: (is, il) :: rest
        else if Seq32.gt s ie then (is, il) :: go rest
        else begin
          (* Overlapping or abutting: merge and retry. *)
          let ns = Seq32.min s is and ne = Seq32.max e ie in
          let merged = go_merge ns ne rest in
          merged
        end
  and go_merge s e = function
    | [] -> [ (s, Seq32.diff e s) ]
    | (is, il) :: rest ->
        let ie = Seq32.add is il in
        if Seq32.lt e is then (s, Seq32.diff e s) :: (is, il) :: rest
        else go_merge s (Seq32.max e ie) rest
  in
  t.ivs <- go t.ivs

(* Consume intervals now contiguous with [next]. *)
let drain t =
  let rec go () =
    match t.ivs with
    | (is, il) :: rest when Seq32.le is t.next ->
        let ie = Seq32.add is il in
        if Seq32.gt ie t.next then t.next <- ie;
        t.ivs <- rest;
        go ()
    | _ -> ()
  in
  go ()

let process t ~seq ~len ~window =
  assert (len > 0);
  let rel = Seq32.diff seq t.next in
  if rel + len <= 0 then Duplicate
  else begin
    let trim = if rel < 0 then -rel else 0 in
    let off = if rel > 0 then rel else 0 in
    let eff_len = Int.min (len - trim) (window - off) in
    if eff_len <= 0 then Drop_out_of_window
    else if off = 0 then begin
      let before = t.next in
      t.next <- Seq32.add t.next eff_len;
      drain t;
      Accept { trim; len = eff_len; advance = Seq32.diff t.next before }
    end
    else begin
      let s = Seq32.add t.next off in
      insert t s (Seq32.add s eff_len);
      Ooo_accept { trim; off; len = eff_len }
    end
  end

let force_advance t n =
  t.next <- Seq32.add t.next n;
  (* Drop intervals the advance swallowed. *)
  t.ivs <-
    List.filter (fun (is, il) -> Seq32.gt (Seq32.add is il) t.next) t.ivs;
  drain t
