module desh/bench

go 1.22

require desh v0.0.0

replace desh => ../
