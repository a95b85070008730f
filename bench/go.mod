module bgpintent/bench

go 1.22

require bgpintent v0.0.0

replace bgpintent => ../
