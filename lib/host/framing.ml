let encode payload =
  let n = Bytes.length payload in
  let out = Bytes.create (4 + n) in
  Bytes.set out 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set out 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set out 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set out 3 (Char.chr (n land 0xFF));
  Bytes.blit payload 0 out 4 n;
  out

let encoded_len n = n + 4

(* The undecoded stream is [len] bytes of [buf] from [pos]. A push
   that would run past the end first moves them to the front, so the
   buffer grows only when the undecoded bytes themselves outgrow it:
   consumed bytes are never kept, and a decoder that keeps up with its
   stream keeps the buffer [create] made. *)
type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let create () = { buf = Bytes.create 4096; pos = 0; len = 0 }

let push t chunk =
  let n = Bytes.length chunk in
  if t.pos + t.len + n > Bytes.length t.buf then begin
    let cap = ref (Bytes.length t.buf) in
    while t.len + n > !cap do
      cap := 2 * !cap
    done;
    let dst =
      if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap
    in
    Bytes.blit t.buf t.pos dst 0 t.len;
    t.buf <- dst;
    t.pos <- 0
  end;
  Bytes.blit chunk 0 t.buf (t.pos + t.len) n;
  t.len <- t.len + n

let byte t i = Char.code (Bytes.get t.buf (t.pos + i))

let next t =
  if t.len < 4 then None
  else begin
    let n =
      (byte t 0 lsl 24) lor (byte t 1 lsl 16) lor (byte t 2 lsl 8)
      lor byte t 3
    in
    if t.len < 4 + n then None
    else begin
      let payload = Bytes.sub t.buf (t.pos + 4) n in
      t.len <- t.len - 4 - n;
      t.pos <- (if t.len = 0 then 0 else t.pos + 4 + n);
      Some payload
    end
  end

let rec iter_available t f =
  match next t with
  | Some m ->
      f m;
      iter_available t f
  | None -> ()

let buffered t = t.len
