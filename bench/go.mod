module f2c/bench

go 1.24

require f2c v0.0.0

replace f2c => ../
