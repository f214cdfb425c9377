module turbo/benchmark

go 1.22

require turbo v0.0.0

replace turbo => ../
