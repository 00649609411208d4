type subscription = { mutable active : bool; mutable detach : unit -> unit }

type 'a t = { mutable subs : (subscription * ('a -> unit)) list }

let create () = { subs = [] }

let subscribe bus fn =
  let s = { active = true; detach = (fun () -> ()) } in
  s.detach <-
    (fun () -> bus.subs <- List.filter (fun (s', _) -> not (s' == s)) bus.subs);
  bus.subs <- bus.subs @ [ (s, fn) ];
  s

let unsubscribe s =
  if s.active then begin
    s.active <- false;
    s.detach ();
    s.detach <- (fun () -> ())
  end

let active s = s.active

(* A top-level walk: [List.iter] with a closure over [ev] would allocate
   that closure on every publication, on every bus. *)
let rec deliver ev = function
  | [] -> ()
  | (s, fn) :: rest ->
      if s.active then fn ev;
      deliver ev rest

let publish bus ev =
  (* Iterate the list as it was when publication started: subscribers added
     mid-publish only see later events; unsubscribed ones are skipped via
     their [active] flag. *)
  deliver ev bus.subs

let subscriber_count bus = List.length bus.subs
