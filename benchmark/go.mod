module opendrc/benchmark

go 1.22

require opendrc v0.0.0

replace opendrc => ../
