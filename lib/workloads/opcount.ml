type t = {
  mutable alu : int;
  mutable mul : int;
  mutable div : int;
  mutable load : int;
  mutable store : int;
  mutable branch : int;
  mutable jump : int;
}

let zero () =
  { alu = 0; mul = 0; div = 0; load = 0; store = 0; branch = 0; jump = 0 }

let copy t = { t with alu = t.alu }

let diff after before =
  {
    alu = after.alu - before.alu;
    mul = after.mul - before.mul;
    div = after.div - before.div;
    load = after.load - before.load;
    store = after.store - before.store;
    branch = after.branch - before.branch;
    jump = after.jump - before.jump;
  }

let add acc x =
  acc.alu <- acc.alu + x.alu;
  acc.mul <- acc.mul + x.mul;
  acc.div <- acc.div + x.div;
  acc.load <- acc.load + x.load;
  acc.store <- acc.store + x.store;
  acc.branch <- acc.branch + x.branch;
  acc.jump <- acc.jump + x.jump

let add_scaled acc x n =
  acc.alu <- acc.alu + (x.alu * n);
  acc.mul <- acc.mul + (x.mul * n);
  acc.div <- acc.div + (x.div * n);
  acc.load <- acc.load + (x.load * n);
  acc.store <- acc.store + (x.store * n);
  acc.branch <- acc.branch + (x.branch * n);
  acc.jump <- acc.jump + (x.jump * n)

let total t = t.alu + t.mul + t.div + t.load + t.store + t.branch + t.jump

let cycles (c : Riscv.Cost.t) t =
  (t.alu * c.Riscv.Cost.alu)
  + (t.mul * c.Riscv.Cost.mul)
  + (t.div * c.Riscv.Cost.div)
  + (t.load * c.Riscv.Cost.load)
  + (t.store * c.Riscv.Cost.store)
  + (t.branch * c.Riscv.Cost.branch)
  + (t.jump * c.Riscv.Cost.jump)

let scale t f =
  let s v = int_of_float (Float.round (float_of_int v *. f)) in
  {
    alu = s t.alu;
    mul = s t.mul;
    div = s t.div;
    load = s t.load;
    store = s t.store;
    branch = s t.branch;
    jump = s t.jump;
  }

type locality = { hot_pages : int; hot_dlines : int; hot_ilines : int }

let refill_cycles (c : Riscv.Cost.t) l =
  (min l.hot_pages c.Riscv.Cost.tlb_capacity * c.Riscv.Cost.tlb_refill_per_page)
  + (min l.hot_dlines c.Riscv.Cost.dcache_lines
    * c.Riscv.Cost.cache_refill_per_line)
  + (min l.hot_ilines c.Riscv.Cost.dcache_lines
    * c.Riscv.Cost.cache_refill_per_line)

let pp ppf t =
  Format.fprintf ppf
    "alu=%d mul=%d div=%d ld=%d st=%d br=%d j=%d (total %d)" t.alu t.mul
    t.div t.load t.store t.branch t.jump (total t)
