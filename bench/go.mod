module dynaminer/bench

go 1.22

require dynaminer v0.0.0

replace dynaminer => ../
