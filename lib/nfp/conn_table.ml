(* Each cell holds [Some v] while its key is present. The option is
   allocated once, by [replace], so [find_opt] returns the stored cell
   itself and never allocates. *)
type 'a t = { mutable cells : 'a option array; mutable count : int }

let create () = { cells = Array.make 64 None; count = 0 }

let find_opt t key =
  if key >= 0 && key < Array.length t.cells then Array.unsafe_get t.cells key
  else None

let mem t key = Option.is_some (find_opt t key)

(* Doubles until [key] fits, so a run of growing keys costs amortized
   O(1) each. *)
let grow t key =
  let cap = ref (Array.length t.cells) in
  while key >= !cap do
    cap := 2 * !cap
  done;
  let cells = Array.make !cap None in
  Array.blit t.cells 0 cells 0 (Array.length t.cells);
  t.cells <- cells

let replace t key v =
  if key < 0 then invalid_arg "Conn_table.replace: negative key";
  if key >= Array.length t.cells then grow t key;
  if Option.is_none (Array.unsafe_get t.cells key) then t.count <- t.count + 1;
  Array.unsafe_set t.cells key (Some v)

let remove t key =
  if key >= 0 && key < Array.length t.cells then
    match Array.unsafe_get t.cells key with
    | Some _ ->
        Array.unsafe_set t.cells key None;
        t.count <- t.count - 1
    | None -> ()

let length t = t.count
