"""ML substrate (scikit-learn substitute): models, metrics, preprocessing."""

from .boosting import GradientBoostingClassifier, GradientBoostingRegressor
from .cluster import AgglomerativeClustering, cluster_by_vector
from .forest import IsolationForest, RandomForestClassifier, RandomForestRegressor
from .knn import KNeighborsClassifier, KNeighborsRegressor
from .linear import LinearRegression, LogisticRegression
from .metrics import detection_scores, macro_f1_score, mean_squared_error
from .model_selection import train_test_split_indices
from .preprocessing import FrameEncoder
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "AgglomerativeClustering",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "FrameEncoder",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "IsolationForest",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "LinearRegression",
    "LogisticRegression",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "cluster_by_vector",
    "detection_scores",
    "macro_f1_score",
    "mean_squared_error",
    "train_test_split_indices",
]
