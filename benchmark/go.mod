module zombie/benchmark

go 1.22

require zombie v0.0.0

replace zombie => ../
