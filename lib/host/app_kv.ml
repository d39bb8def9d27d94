type request = Get of Bytes.t | Set of Bytes.t * Bytes.t
type response = Value of Bytes.t | Stored | Miss | Bad_request

let put_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 1) (Char.chr (v land 0xFF))

let put_u32 b off v =
  put_u16 b off (v lsr 16);
  put_u16 b (off + 2) v

let get_u16 b off =
  (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)

let encode_request req =
  let op, key, value =
    match req with
    | Get k -> (0, k, Bytes.empty)
    | Set (k, v) -> (1, k, v)
  in
  let klen = Bytes.length key and vlen = Bytes.length value in
  let out = Bytes.create (7 + klen + vlen) in
  Bytes.set out 0 (Char.chr op);
  put_u16 out 1 klen;
  put_u32 out 3 vlen;
  Bytes.blit key 0 out 7 klen;
  Bytes.blit value 0 out (7 + klen) vlen;
  out

let decode_request b =
  if Bytes.length b < 7 then None
  else begin
    let op = Char.code (Bytes.get b 0) in
    let klen = get_u16 b 1 and vlen = get_u32 b 3 in
    if Bytes.length b <> 7 + klen + vlen then None
    else begin
      let key = Bytes.sub b 7 klen in
      match op with
      | 0 when vlen = 0 -> Some (Get key)
      | 1 -> Some (Set (key, Bytes.sub b (7 + klen) vlen))
      | _ -> None
    end
  end

let encode_response resp =
  let status, value =
    match resp with
    | Value v -> (0, v)
    | Stored -> (0, Bytes.empty)
    | Miss -> (1, Bytes.empty)
    | Bad_request -> (2, Bytes.empty)
  in
  let vlen = Bytes.length value in
  let out = Bytes.create (5 + vlen) in
  Bytes.set out 0 (Char.chr status);
  put_u32 out 1 vlen;
  Bytes.blit value 0 out 5 vlen;
  out

let decode_response b =
  if Bytes.length b < 5 then None
  else begin
    let status = Char.code (Bytes.get b 0) in
    let vlen = get_u32 b 1 in
    if Bytes.length b <> 5 + vlen then None
    else
      match status with
      | 0 when vlen > 0 -> Some (Value (Bytes.sub b 5 vlen))
      | 0 -> Some Stored
      | 1 -> Some Miss
      | 2 -> Some Bad_request
      | _ -> None
  end

(* A typed table: a lookup hashes and compares the key as a string,
   with no polymorphic [compare]. It is not iterated. *)
module Store = Hashtbl.Make (String)

type server = { store : Bytes.t Store.t }

(* [decode_request]'s key is a fresh copy that nothing writes, so it
   serves as the table's string key without a second copy. *)
let handle t req =
  match decode_request req with
  | None -> encode_response Bad_request
  | Some (Get key) -> begin
      match Store.find_opt t.store (Bytes.unsafe_to_string key) with
      | Some v -> encode_response (Value v)
      | None -> encode_response Miss
    end
  | Some (Set (key, value)) ->
      Store.replace t.store (Bytes.unsafe_to_string key) value;
      encode_response Stored

let server ~endpoint ~port ~app_cycles () =
  let t = { store = Store.create 4096 } in
  endpoint.Api.listen ~port ~on_accept:(fun sock ->
      let core = sock.Api.core in
      let decoder = Framing.create () in
      sock.Api.on_readable <-
        (fun () ->
          let chunk = sock.Api.recv ~max:max_int in
          Framing.push decoder chunk;
          Framing.iter_available decoder (fun req ->
              Host_cpu.exec core ~category:"app" ~cycles:app_cycles
                (fun () ->
                  let resp = handle t req in
                  ignore (sock.Api.send (Framing.encode resp))))));
  t

let entries t = Store.length t.store

(* Client-side cycles to generate and parse one transaction. *)
let client_think_cycles = 200

let client ~endpoint ~engine ~server_ip ~server_port ~conns ~pipeline
    ~key_bytes ~value_bytes ~set_ratio ~stats () =
  let rng = Sim.Rng.split (Sim.Engine.Local.rng engine) in
  let keyspace = 1024 in
  let key i =
    let b = Bytes.make key_bytes 'k' in
    let s = string_of_int i in
    Bytes.blit_string s 0 b 0 (Int.min (String.length s) key_bytes);
    b
  in
  let make_request () =
    if Sim.Rng.bool rng set_ratio then
      Set (key (Sim.Rng.int rng keyspace), Bytes.make value_bytes 'v')
    else Get (key (Sim.Rng.int rng keyspace))
  in
  for i = 0 to conns - 1 do
    endpoint.Api.connect ~remote_ip:server_ip ~remote_port:server_port
      ~on_connected:(fun result ->
        match result with
        | Error _ -> ()
        | Ok sock ->
            let decoder = Framing.create () in
            let outstanding = Sim.Fifo.create () in
            let send_one () =
              Host_cpu.exec sock.Api.core ~category:"app"
                ~cycles:client_think_cycles (fun () ->
                  let msg =
                    Framing.encode (encode_request (make_request ()))
                  in
                  Sim.Fifo.push (Sim.Engine.now engine) outstanding;
                  ignore (sock.Api.send msg))
            in
            sock.Api.on_readable <-
              (fun () ->
                let chunk = sock.Api.recv ~max:max_int in
                Framing.push decoder chunk;
                Framing.iter_available decoder (fun resp ->
                    (match Sim.Fifo.take_opt outstanding with
                    | Some t0 ->
                        Rpc.Stats.record_rtt stats
                          (Sim.Engine.now engine - t0);
                        Rpc.Stats.record_conn_op stats ~conn:i
                          ~bytes:(Bytes.length resp)
                    | None -> ());
                    send_one ()));
            (* Pre-populate some keys so GETs mostly hit. *)
            for _ = 1 to pipeline do
              send_one ()
            done)
  done
