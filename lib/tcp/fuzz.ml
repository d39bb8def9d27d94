type stats = {
  total : int;
  accepted : int;
  rejected : int;
  raised : int;
  csum_caught : int;
  failures : string list;
}

let ok s = s.raised = 0

(* A seeded, structurally diverse valid frame: random addressing,
   flags, options, ECN marking, VLAN tagging and payload size — so
   mutations exercise every header layout the codec supports. *)
let random_frame rng =
  let flags =
    {
      Segment.syn = Sim.Rng.bool rng 0.5;
      ack = Sim.Rng.bool rng 0.5;
      fin = Sim.Rng.bool rng 0.5;
      rst = Sim.Rng.bool rng 0.5;
      psh = Sim.Rng.bool rng 0.5;
      urg = Sim.Rng.bool rng 0.5;
      ece = Sim.Rng.bool rng 0.5;
      cwr = Sim.Rng.bool rng 0.5;
    }
  in
  let options =
    {
      Segment.mss =
        (if Sim.Rng.bool rng 0.5 then Some (536 + Sim.Rng.int rng 8960) else None);
      ts =
        (if Sim.Rng.bool rng 0.5 then
           Some (Sim.Rng.int rng 0x3FFF_FFFF, Sim.Rng.int rng 0x3FFF_FFFF)
         else None);
    }
  in
  let payload =
    Bytes.init (Sim.Rng.int rng 1400) (fun _ ->
        Char.chr (Sim.Rng.int rng 256))
  in
  let seg =
    Segment.make ~flags ~window:(Sim.Rng.int rng 0x10000) ~options ~payload
      ~src_ip:(Sim.Rng.int rng 0x3FFF_FFFF)
      ~dst_ip:(Sim.Rng.int rng 0x3FFF_FFFF)
      ~src_port:(Sim.Rng.int rng 0x10000)
      ~dst_port:(Sim.Rng.int rng 0x10000)
      ~seq:(Seq32.of_int (Sim.Rng.int rng 0x3FFF_FFFF))
      ~ack_seq:(Seq32.of_int (Sim.Rng.int rng 0x3FFF_FFFF))
      ()
  in
  let vlan =
    if Sim.Rng.bool rng 0.5 then Some (Some (1 + Sim.Rng.int rng 4094)) else None
  in
  let ecn =
    match Sim.Rng.int rng 4 with
    | 0 -> Segment.Not_ect
    | 1 -> Segment.Ect0
    | 2 -> Segment.Ect1
    | _ -> Segment.Ce
  in
  Segment.make_frame ?vlan ~ecn
    ~src_mac:(Sim.Rng.int rng 0xFFFFFF)
    ~dst_mac:(Sim.Rng.int rng 0xFFFFFF)
    seg

(* One mutation of a valid encoding. Returns the mutated buffer and a
   short description for failure reports. *)
let mutate rng bytes =
  let n = Bytes.length bytes in
  let copy () = Bytes.copy bytes in
  match Sim.Rng.int rng 8 with
  | 0 ->
      (* Truncation at an arbitrary point — includes mid-header cuts. *)
      let keep = Sim.Rng.int rng (n + 1) in
      (Bytes.sub bytes 0 keep, Printf.sprintf "truncate to %d/%d" keep n)
  | 1 ->
      (* Truncation at a boundary the parser treats specially. *)
      let cuts = [ 0; 6; 12; 14; 18; 34; 38; 46; 54 ] in
      let keep = Int.min n (List.nth cuts (Sim.Rng.int rng (List.length cuts))) in
      (Bytes.sub bytes 0 keep, Printf.sprintf "truncate at boundary %d" keep)
  | 2 ->
      (* Single bit flip anywhere. *)
      let b = copy () in
      let i = Sim.Rng.int rng n in
      let bit = Sim.Rng.int rng 8 in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      (b, Printf.sprintf "bit flip at %d.%d" i bit)
  | 3 ->
      (* Corrupt the TCP data-offset nibble: offsets < 5 and offsets
         pointing past the buffer are both reachable. *)
      let b = copy () in
      let off = Wire.off_tcp + 12 in
      if off < n then
        Bytes.set b off
          (Char.chr
             ((Sim.Rng.int rng 16 lsl 4)
             lor (Char.code (Bytes.get b off) land 0x0F)));
      (b, "bad tcp data offset")
  | 4 ->
      (* Corrupt the IP total-length field. *)
      let b = copy () in
      let off = Wire.off_ip + 2 in
      if off + 1 < n then begin
        Bytes.set b off (Char.chr (Sim.Rng.int rng 256));
        Bytes.set b (off + 1) (Char.chr (Sim.Rng.int rng 256))
      end;
      (b, "bad ip total length")
  | 5 ->
      (* Corrupt the ethertype / VLAN TPID region. *)
      let b = copy () in
      let off = Wire.off_ethertype + Sim.Rng.int rng 4 in
      if off < n then Bytes.set b off (Char.chr (Sim.Rng.int rng 256));
      (b, "bad ethertype/vlan")
  | 6 ->
      (* Several random byte smashes. *)
      let b = copy () in
      for _ = 1 to 1 + Sim.Rng.int rng 8 do
        Bytes.set b (Sim.Rng.int rng n) (Char.chr (Sim.Rng.int rng 256))
      done;
      (b, "byte smash")
  | _ ->
      (* Pure garbage of arbitrary length, no valid structure at all. *)
      let len = Sim.Rng.int rng 200 in
      ( Bytes.init len (fun _ -> Char.chr (Sim.Rng.int rng 256)),
        Printf.sprintf "garbage len %d" len )

let run ?(seed = 0xF022L) ?(cases = 2000) () =
  let rng = Sim.Rng.create seed in
  let accepted = ref 0 in
  let rejected = ref 0 in
  let raised = ref 0 in
  let csum_caught = ref 0 in
  let failures = ref [] in
  for _ = 1 to cases do
    let frame = random_frame rng in
    let wire = Wire.encode frame in
    let mutated, desc = mutate rng wire in
    let verify = Sim.Rng.bool rng 0.5 in
    (match Wire.decode ~verify_checksums:verify mutated with
    | Ok _ -> incr accepted
    | Error (Wire.Bad_ip_checksum | Wire.Bad_tcp_checksum) ->
        incr rejected;
        incr csum_caught
    | Error _ -> incr rejected
    | exception e ->
        incr raised;
        if List.length !failures < 10 then
          failures :=
            Printf.sprintf "%s: raised %s" desc (Printexc.to_string e)
            :: !failures);
    (* The checksum helpers themselves must also tolerate any input
       when given in-bounds ranges. *)
    let mn = Bytes.length mutated in
    if mn > 0 then begin
      match
        ( Checksum.internet mutated ~off:0 ~len:mn,
          Checksum.crc32 mutated ~off:0 ~len:mn )
      with
      | _ -> ()
      | exception e ->
          incr raised;
          if List.length !failures < 10 then
            failures :=
              Printf.sprintf "%s: checksum raised %s" desc
                (Printexc.to_string e)
              :: !failures
    end
  done;
  {
    total = cases;
    accepted = !accepted;
    rejected = !rejected;
    raised = !raised;
    csum_caught = !csum_caught;
    failures = List.rev !failures;
  }
