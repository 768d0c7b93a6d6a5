type 'a t = {
  slots : 'a option array;
  stamps : int array;  (* insertion stamp of each live binding *)
  hashes : int array;  (* [Hashtbl.hash core], computed once *)
  mutable next_stamp : int;
  mutable size : int;
  mutable buckets : int;  (* bucket count of the equivalent stdlib table *)
}

let create ~cores =
  {
    slots = Array.make cores None;
    stamps = Array.make cores 0;
    hashes = Array.init cores Hashtbl.hash;
    next_stamp = 0;
    size = 0;
    buckets = 16;
  }

let find t core =
  if core < 0 || core >= Array.length t.slots then None else t.slots.(core)

let mem t core = Option.is_some (find t core)

let replace t core v =
  if core < 0 || core >= Array.length t.slots then
    invalid_arg (Printf.sprintf "Core_table.replace: core %d out of range" core);
  if Option.is_none t.slots.(core) then begin
    t.stamps.(core) <- t.next_stamp;
    t.next_stamp <- t.next_stamp + 1;
    t.size <- t.size + 1;
    if t.size > 2 * t.buckets then t.buckets <- 2 * t.buckets
  end;
  t.slots.(core) <- Some v

let remove t core =
  if Option.is_some (find t core) then begin
    t.slots.(core) <- None;
    t.size <- t.size - 1
  end

let iter f t =
  Array.iteri (fun core -> function Some v -> f core v | None -> ()) t.slots

let bindings t =
  let bucket core = t.hashes.(core) land (t.buckets - 1) in
  let live = ref [] in
  iter (fun core v -> live := (core, v) :: !live) t;
  List.sort
    (fun (a, _) (b, _) ->
      match compare (bucket b) (bucket a) with
      | 0 -> compare t.stamps.(a) t.stamps.(b)
      | c -> c)
    !live
