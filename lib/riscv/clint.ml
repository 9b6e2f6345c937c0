type t = {
  n : int;
  mutable time : int64;
  timecmp : int64 array;
  sip : bool array;
  mutable gen : int;
      (* configuration generation: bumped whenever mtimecmp/msip change
         (or mtime is written directly via MMIO — a backwards jump), but
         NOT by the per-step [set_mtime] clock sync. The timer-poll fast
         path memoises the next interesting mtime and revalidates only
         when this moves. *)
}

let size = 0x10000L

let create ~nharts =
  if nharts <= 0 then invalid_arg "Clint.create: need at least one hart";
  {
    n = nharts;
    time = 0L;
    timecmp = Array.make nharts Int64.max_int;
    sip = Array.make nharts false;
    gen = 0;
  }

let nharts t = t.n
let mtime t = t.time
let set_mtime t v = t.time <- v
let generation t = t.gen

let check_hart t h =
  if h < 0 || h >= t.n then invalid_arg "Clint: hart out of range"

let mtimecmp t h =
  check_hart t h;
  t.timecmp.(h)

let set_mtimecmp t h v =
  check_hart t h;
  t.timecmp.(h) <- v;
  t.gen <- t.gen + 1

let msip t h =
  check_hart t h;
  t.sip.(h)

let timer_pending t h =
  check_hart t h;
  not (Xword.ult t.time t.timecmp.(h))

let read t off _len =
  let off = Int64.to_int off in
  if off >= 0 && off < 0x4000 && off mod 4 = 0 then begin
    let h = off / 4 in
    if h < t.n then (if t.sip.(h) then 1L else 0L) else 0L
  end
  else if off >= 0x4000 && off < 0xbff8 && (off - 0x4000) mod 8 = 0 then begin
    let h = (off - 0x4000) / 8 in
    if h < t.n then t.timecmp.(h) else 0L
  end
  else if off = 0xbff8 then t.time
  else 0L

let write t off _len v =
  let off = Int64.to_int off in
  if off >= 0 && off < 0x4000 && off mod 4 = 0 then begin
    let h = off / 4 in
    if h < t.n then begin
      t.sip.(h) <- Int64.logand v 1L = 1L;
      t.gen <- t.gen + 1
    end
  end
  else if off >= 0x4000 && off < 0xbff8 && (off - 0x4000) mod 8 = 0 then begin
    let h = (off - 0x4000) / 8 in
    if h < t.n then begin
      t.timecmp.(h) <- v;
      t.gen <- t.gen + 1
    end
  end
  else if off = 0xbff8 then begin
    t.time <- v;
    t.gen <- t.gen + 1
  end
