type total = { mutable sum : float }

type t = {
  order : Ordtbl.t; (* the apps holding a share, in Hashtbl order *)
  mutable by_app : float array; (* app -> share, while in [order] *)
  mutable len : int;
  mutable apps : int array;
  mutable shares : float array;
  total : total;
}

let create () =
  {
    order = Ordtbl.create ();
    by_app = [||];
    len = 0;
    apps = Array.make 4 0;
    shares = Array.make 4 0.0;
    total = { sum = 0.0 };
  }

let set t ~app share =
  if share > 0.0 then begin
    Ordtbl.add t.order app;
    if app >= Array.length t.by_app then begin
      let a = Array.make (max 8 (2 * app)) 0.0 in
      Array.blit t.by_app 0 a 0 (Array.length t.by_app);
      t.by_app <- a
    end;
    t.by_app.(app) <- share
  end
  else Ordtbl.remove t.order app;
  let n = Ordtbl.length t.order in
  if n > Array.length t.apps then begin
    t.apps <- Array.make (2 * n) 0;
    t.shares <- Array.make (2 * n) 0.0
  end;
  (* re-sum from zero in iteration order, never by the delta, so the sum
     has the bits a fold over the table would give *)
  t.len <- n;
  t.total.sum <- 0.0;
  for i = 0 to n - 1 do
    let a = Ordtbl.key t.order i in
    let s = t.by_app.(a) in
    t.apps.(i) <- a;
    t.shares.(i) <- s;
    t.total.sum <- t.total.sum +. s
  done
