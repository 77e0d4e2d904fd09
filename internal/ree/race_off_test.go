//go:build !race

package ree

const raceEnabled = false
