open Bpf_insn

type program = { insns : Bpf_insn.t array }

let instructions p = p.insns

(* Segmented VM address space. *)
let ctx_base = 0x1000_0000
let pkt_base = 0x2000_0000
let stack_base = 0x3000_0000
let map_base = 0x4000_0000
let map_stride = 0x0100_0000

let map_specs maps =
  Array.map
    (fun m ->
      {
        Verifier.key_size = Bpf_map.key_size m;
        value_size = Bpf_map.value_size m;
      })
    maps

let load ?max_insns ?maps insns =
  Verifier.verify ?max_insns ?maps:(Option.map map_specs maps) insns
  |> Result.map (fun _ -> { insns = Array.copy insns })

let load_unverified ?max_insns insns =
  Verifier.check_syntax ?max_insns insns
  |> Result.map (fun () -> { insns = Array.copy insns })

type outcome = { ret : int; insns_executed : int; packet : Bytes.t }

exception Fault of string

type memory = {
  maps : Bpf_map.t array;
  mutable pkt : Bytes.t;
  mutable head : int;  (* packet view starts here *)
  stack : Bytes.t;
  ctx : Bytes.t;  (* 16 bytes: data, data_end as u64 LE *)
}

let refresh_ctx m =
  Bytes.set_int64_le m.ctx 0 (Int64.of_int (pkt_base + m.head));
  Bytes.set_int64_le m.ctx 8 (Int64.of_int (pkt_base + Bytes.length m.pkt))

(* Resolve an address to (backing bytes, offset), checking [width]. *)
let resolve m addr width =
  let a = Int64.to_int addr in
  if a >= ctx_base && a + width <= ctx_base + 16 then (m.ctx, a - ctx_base)
  else if a >= pkt_base + m.head && a + width <= pkt_base + Bytes.length m.pkt
  then (m.pkt, a - pkt_base)
  else if a >= stack_base && a + width <= stack_base + stack_size then
    (m.stack, a - stack_base)
  else if a >= map_base then begin
    let map_id = (a - map_base) / map_stride in
    let off = (a - map_base) mod map_stride in
    if map_id < Array.length m.maps then begin
      let arena = Bpf_map.arena m.maps.(map_id) in
      if off + width <= Bytes.length arena then (arena, off)
      else raise (Fault "map access out of bounds")
    end
    else raise (Fault "bad map pointer")
  end
  else raise (Fault (Printf.sprintf "bad memory access at 0x%x" a))

let load_mem m addr size =
  let width = width_of size in
  let b, off = resolve m addr width in
  let v = ref 0L in
  for i = width - 1 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  !v

let store_mem m addr size v =
  let width = width_of size in
  let b, off = resolve m addr width in
  for i = 0 to width - 1 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let read_key m addr size =
  let b, off = resolve m addr size in
  Bytes.sub b off size

let be_swap v bits =
  (* Values are stored little-endian in memory reads; to-BE reverses
     byte order over the given width. *)
  let bytes = bits / 8 in
  let out = ref 0L in
  for i = 0 to bytes - 1 do
    let byte =
      Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL
    in
    out := Int64.logor !out (Int64.shift_left byte (8 * (bytes - 1 - i)))
  done;
  !out

let budget = 65536

let run p ~maps ~now_ns ~packet =
  let m =
    {
      maps;
      pkt = Bytes.copy packet;
      head = 0;
      stack = Bytes.make stack_size '\000';
      ctx = Bytes.make 16 '\000';
    }
  in
  refresh_ctx m;
  let regs = Array.make 11 0L in
  regs.(1) <- Int64.of_int ctx_base;
  regs.(10) <- Int64.of_int (stack_base + stack_size);
  let count = ref 0 in
  let final_pkt () =
    Bytes.sub m.pkt m.head (Bytes.length m.pkt - m.head)
  in
  let src_val = function Reg r -> regs.(r) | Imm v -> Int64.of_int v in
  let helper id =
    if id = helper_ktime then regs.(0) <- now_ns
    else if id = helper_adjust_head then begin
      let delta = Int64.to_int regs.(2) in
      let new_head = m.head + delta in
      if new_head < 0 || new_head > Bytes.length m.pkt then
        regs.(0) <- Int64.minus_one
      else begin
        m.head <- new_head;
        refresh_ctx m;
        regs.(0) <- 0L
      end
    end
    else if id = helper_csum_fixup then begin
      let view = final_pkt () in
      (try
         Tcp.Wire.fixup_tcp_checksum view;
         Bytes.blit view 0 m.pkt m.head (Bytes.length view);
         regs.(0) <- 0L
       with _ -> regs.(0) <- Int64.minus_one)
    end
    else begin
      (* Map helpers. *)
      let map_id = Int64.to_int regs.(1) in
      if map_id < 0 || map_id >= Array.length maps then
        raise (Fault "bad map id");
      let map = maps.(map_id) in
      if id = helper_map_lookup then begin
        let key = read_key m regs.(2) (Bpf_map.key_size map) in
        match Bpf_map.lookup_slot map ~key with
        | Some slot ->
            regs.(0) <-
              Int64.of_int (map_base + (map_id * map_stride) + slot)
        | None -> regs.(0) <- 0L
      end
      else if id = helper_map_update then begin
        let key = read_key m regs.(2) (Bpf_map.key_size map) in
        let value = read_key m regs.(3) (Bpf_map.value_size map) in
        match Bpf_map.update map ~key ~value with
        | Ok () -> regs.(0) <- 0L
        | Error _ -> regs.(0) <- Int64.minus_one
      end
      else if id = helper_map_delete then begin
        let key = read_key m regs.(2) (Bpf_map.key_size map) in
        regs.(0) <- (if Bpf_map.delete map ~key then 0L else Int64.minus_one)
      end
      else raise (Fault "unknown helper")
    end
  in
  let rec exec pc =
    if !count >= budget then raise (Fault "instruction budget exceeded");
    incr count;
    match p.insns.(pc) with
    | Exit -> Int64.to_int (Int64.logand regs.(0) 0xFFFFFFFFL)
    | Alu64 (op, d, s) ->
        regs.(d) <- alu64 op regs.(d) (src_val s);
        exec (pc + 1)
    | Alu32 (op, d, s) ->
        regs.(d) <- alu32 op regs.(d) (src_val s);
        exec (pc + 1)
    | Endian_be (d, bits) ->
        regs.(d) <- be_swap regs.(d) bits;
        exec (pc + 1)
    | Ld_imm64 (d, v) ->
        regs.(d) <- v;
        exec (pc + 1)
    | Ldx (size, d, s, off) ->
        regs.(d) <- load_mem m (Int64.add regs.(s) (Int64.of_int off)) size;
        exec (pc + 1)
    | St_imm (size, d, off, imm) ->
        store_mem m
          (Int64.add regs.(d) (Int64.of_int off))
          size (Int64.of_int imm);
        exec (pc + 1)
    | Stx (size, d, off, s) ->
        store_mem m (Int64.add regs.(d) (Int64.of_int off)) size regs.(s);
        exec (pc + 1)
    | Ja off -> exec (pc + 1 + off)
    | Jmp (cond, d, s, off) ->
        if jump_taken cond regs.(d) (src_val s) then exec (pc + 1 + off)
        else exec (pc + 1)
    | Call id ->
        helper id;
        exec (pc + 1)
  in
  match exec 0 with
  | ret -> { ret; insns_executed = !count; packet = final_pkt () }
  | exception Fault _ ->
      { ret = xdp_aborted; insns_executed = !count; packet = final_pkt () }
