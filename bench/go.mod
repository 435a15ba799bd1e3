module essent/bench

go 1.22

require essent v0.0.0

replace essent => ../
