//go:build race

package ree

const raceEnabled = true
