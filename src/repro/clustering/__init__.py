"""k-means clustering for SimPoint-style offline phase analysis.

Implements the clustering pipeline of SimPoint 3.0: k-means with k-means++
seeding and multiple restarts, and BIC-based selection of the cluster
count.
"""

from .kmeans import KMeansResult, kmeans
from .bic import bic_score, choose_k

__all__ = ["KMeansResult", "kmeans", "bic_score", "choose_k"]
