type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- Printing --------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if not (Float.is_finite f) then
        (* NaN/inf are not JSON; emit null rather than invalid output. *)
        Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* The shortest of %.15g..%.17g that reads back to the same double.
   [to_string] keeps plain %.17g: golden digests pin its bytes. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let to_string_pretty v =
  let buf = Buffer.create 256 in
  let rec go ind = function
    | Float f when Float.is_finite f && not (Float.is_integer f) ->
        Buffer.add_string buf (float_repr f)
    | List (_ :: _ as xs) -> block ind '[' ']' (go (ind + 2)) xs
    | Obj (_ :: _ as kvs) ->
        block ind '{' '}'
          (fun (k, v) ->
            to_buffer buf (String k);
            Buffer.add_string buf ": ";
            go (ind + 2) v)
          kvs
    | v -> to_buffer buf v
  and block : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun ind op cl item xs ->
    Buffer.add_char buf op;
    List.iteri
      (fun i x ->
        Buffer.add_string buf (if i > 0 then ",\n" else "\n");
        Buffer.add_string buf (String.make (ind + 2) ' ');
        item x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make ind ' ');
    Buffer.add_char buf cl
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- Parsing ---------------------------------------------------------- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let fail p msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" p.pos msg))

let skip_ws p =
  while
    p.pos < String.length p.src
    && match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> p.pos <- p.pos + 1
  | _ -> fail p (Printf.sprintf "expected '%c'" c)

let literal p word v =
  let n = String.length word in
  if
    p.pos + n <= String.length p.src && String.sub p.src p.pos n = word
  then begin
    p.pos <- p.pos + n;
    v
  end
  else fail p ("expected " ^ word)

let parse_string_body p =
  let buf = Buffer.create 16 in
  let rec go () =
    if p.pos >= String.length p.src then fail p "unterminated string";
    match p.src.[p.pos] with
    | '"' -> p.pos <- p.pos + 1
    | '\\' ->
        if p.pos + 1 >= String.length p.src then fail p "bad escape";
        (match p.src.[p.pos + 1] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if p.pos + 5 >= String.length p.src then fail p "bad \\u escape";
            let hex = String.sub p.src (p.pos + 2) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail p "bad \\u escape"
            | Some code ->
                (* Code points beyond one byte are emitted as UTF-8. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end);
            p.pos <- p.pos + 4
        | c -> fail p (Printf.sprintf "bad escape '\\%c'" c));
        p.pos <- p.pos + 2;
        go ()
    | c ->
        Buffer.add_char buf c;
        p.pos <- p.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    p.pos < String.length p.src && is_num_char p.src.[p.pos]
  do
    p.pos <- p.pos + 1
  done;
  let s = String.sub p.src start (p.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail p ("bad number: " ^ s))

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws p;
          expect p '"';
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              p.pos <- p.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail p "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              p.pos <- p.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              p.pos <- p.pos + 1;
              List.rev (v :: acc)
          | _ -> fail p "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some '"' ->
      p.pos <- p.pos + 1;
      String (parse_string_body p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail p (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- Accessors -------------------------------------------------------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_obj_opt = function Obj kvs -> Some kvs | _ -> None
