module press/bench

go 1.22

require press v0.0.0

replace press => ../
