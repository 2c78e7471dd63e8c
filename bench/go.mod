module hpfnt/bench

go 1.24

require hpfnt v0.0.0

replace hpfnt => ../
