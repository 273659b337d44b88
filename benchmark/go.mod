module precis/benchmark

go 1.22

require precis v0.0.0

replace precis => ../
