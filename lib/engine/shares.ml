type total = { mutable sum : float }

type t = {
  mutable by_app : float array; (* app -> share, 0 if it holds none *)
  mutable len : int;
  mutable apps : int array;
  mutable shares : float array;
  total : total;
}

let create () =
  {
    by_app = [||];
    len = 0;
    apps = [||];
    shares = [||];
    total = { sum = 0.0 };
  }

let set t ~app share =
  if share > 0.0 then begin
    if app < 0 then
      invalid_arg (Printf.sprintf "Shares.set: app %d is negative" app);
    if app >= Array.length t.by_app then begin
      let n = max 8 (2 * app) in
      let a = Array.make n 0.0 in
      Array.blit t.by_app 0 a 0 (Array.length t.by_app);
      t.by_app <- a;
      t.apps <- Array.make n 0;
      t.shares <- Array.make n 0.0
    end;
    t.by_app.(app) <- share
  end
  else if app >= 0 && app < Array.length t.by_app then t.by_app.(app) <- 0.0;
  (* re-sum from zero in app order, never by the delta, so the sum has
     the bits of a fold over the holders in that order *)
  let n = ref 0 in
  t.total.sum <- 0.0;
  for a = 0 to Array.length t.by_app - 1 do
    let s = t.by_app.(a) in
    if s > 0.0 then begin
      t.apps.(!n) <- a;
      t.shares.(!n) <- s;
      incr n;
      t.total.sum <- t.total.sum +. s
    end
  done;
  t.len <- !n
