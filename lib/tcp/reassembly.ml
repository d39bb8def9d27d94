type t = {
  mutable next : Seq32.t;
  mutable ooo : (Seq32.t * int) option;
}

let create ~next = { next; ooo = None }
let next t = t.next
let ooo_interval t = t.ooo
let has_hole t = Option.is_some t.ooo

type outcome =
  | Accept of { trim : int; len : int; advance : int; filled_hole : bool }
  | Ooo_accept of { trim : int; off : int; len : int }
  | Duplicate
  | Drop_merge_failed
  | Drop_out_of_window

let process t ~seq ~len ~window =
  assert (len > 0);
  let rel = Seq32.diff seq t.next in
  if rel + len <= 0 then Duplicate
  else begin
    let trim = if rel < 0 then -rel else 0 in
    let off = if rel > 0 then rel else 0 in
    let eff_len = len - trim in
    (* Trim the tail to the advertised window. *)
    let eff_len = Int.min eff_len (window - off) in
    if eff_len <= 0 then Drop_out_of_window
    else if off = 0 then begin
      (* In-order: window head advances. Possibly fills the hole. *)
      let new_next = Seq32.add t.next eff_len in
      match t.ooo with
      | Some (istart, ilen) when Seq32.le istart new_next ->
          (* The in-order data reaches (or overlaps) the interval:
             the hole is filled, consume the interval. *)
          let iend = Seq32.add istart ilen in
          let merged_next = Seq32.max new_next iend in
          let advance = Seq32.diff merged_next t.next in
          t.next <- merged_next;
          t.ooo <- None;
          Accept { trim; len = eff_len; advance; filled_hole = true }
      | _ ->
          t.next <- new_next;
          Accept { trim; len = eff_len; advance = eff_len;
                   filled_hole = false }
    end
    else begin
      (* Out of order: goes at [off]; track/merge the interval. *)
      let s = Seq32.add t.next off in
      let e = Seq32.add s eff_len in
      match t.ooo with
      | None ->
          t.ooo <- Some (s, eff_len);
          Ooo_accept { trim; off; len = eff_len }
      | Some (istart, ilen) ->
          let iend = Seq32.add istart ilen in
          (* Mergeable iff the ranges overlap or abut. *)
          if Seq32.le s iend && Seq32.ge e istart then begin
            let nstart = Seq32.min s istart in
            let nend = Seq32.max e iend in
            t.ooo <- Some (nstart, Seq32.diff nend nstart);
            Ooo_accept { trim; off; len = eff_len }
          end
          else Drop_merge_failed
    end
  end

let force_advance t n =
  let new_next = Seq32.add t.next n in
  (match t.ooo with
  | Some (istart, ilen) when Seq32.le istart new_next ->
      let iend = Seq32.add istart ilen in
      t.next <- Seq32.max new_next iend;
      t.ooo <- None
  | _ -> t.next <- new_next);
  (* Interval entirely behind the new head is stale. *)
  match t.ooo with
  | Some (istart, ilen) when Seq32.le (Seq32.add istart ilen) t.next ->
      t.ooo <- None
  | _ -> ()

let pp fmt t =
  match t.ooo with
  | None -> Format.fprintf fmt "next=%a" Seq32.pp t.next
  | Some (s, l) ->
      Format.fprintf fmt "next=%a ooo=[%a,+%d)" Seq32.pp t.next Seq32.pp s l
