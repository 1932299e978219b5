module github.com/aujoin/aujoin/benchmark

go 1.23

require github.com/aujoin/aujoin v0.0.0

replace github.com/aujoin/aujoin => ../
