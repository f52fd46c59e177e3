module taco/bench

go 1.24.0

require taco v0.0.0

replace taco => ../
