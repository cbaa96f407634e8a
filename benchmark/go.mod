module harness2/benchmark

go 1.22

require harness2 v0.0.0

replace harness2 => ../
