module dmv/benchmark

go 1.22

require dmv v0.0.0

replace dmv => ../
