package experiments

import "polygraph/internal/stats"

// Thin instantiations of the generic stats helpers, so the experiment
// files read at the domain level.

func entropyOf[T comparable](vals []T) float64 { return stats.Entropy(vals) }

func normalizedEntropyOf[T comparable](vals []T) float64 { return stats.NormalizedEntropy(vals) }

func anonymitySets(keys []string) []stats.AnonymityBucket { return stats.AnonymitySets(keys) }

func uniqueRate(keys []string) float64 { return stats.UniqueRate(keys) }

func largeSetRate(keys []string, threshold int) float64 {
	return stats.LargeSetRate(keys, threshold)
}
