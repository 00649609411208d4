type total = { mutable sum : float }

type t = {
  table : (int, float) Hashtbl.t;
  mutable len : int;
  mutable apps : int array;
  mutable shares : float array;
  total : total;
  mutable copy : int -> float -> unit;
}

let append t app s =
  let n = t.len in
  if n = Array.length t.apps then begin
    let grow a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.apps <- grow t.apps 0;
    t.shares <- grow t.shares 0.0
  end;
  t.apps.(n) <- app;
  t.shares.(n) <- s;
  t.len <- n + 1;
  t.total.sum <- t.total.sum +. s

let create () =
  let t =
    {
      table = Hashtbl.create 8;
      len = 0;
      apps = Array.make 4 0;
      shares = Array.make 4 0.0;
      total = { sum = 0.0 };
      copy = (fun _ _ -> ());
    }
  in
  t.copy <- append t;
  t

let set t ~app share =
  if share > 0.0 then Hashtbl.replace t.table app share
  else Hashtbl.remove t.table app;
  t.len <- 0;
  t.total.sum <- 0.0;
  Hashtbl.iter t.copy t.table
