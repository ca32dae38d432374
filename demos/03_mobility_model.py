"""Fit a per-user space-time-social mobility model.

Fits a Gaussian mixture over one user's stay locations with BIC model
selection, labels the clusters visited mostly through friend meetings as
social, and evaluates the friends' social/temporal pull on those clusters
over a day.
"""

import numpy as np

from trajpriv import (WorldConfig, fit_world_models, friend_influence,
                      generate_world, sample_location, social_influence,
                      temporal_influence)


def main():
    world = generate_world(WorldConfig(n_users=32, n_days=14, seed=7))
    models = fit_world_models(world, seed=7)
    user = world.users[0]
    model = models[user]
    print(f"user {user}: {len(model.weights)} clusters, "
          f"{int(model.social_flags.sum())} labeled social")

    point = model.means[0]
    for slot in (8, 12, 19, 23):
        si = social_influence(model, point, slot)
        ti = temporal_influence(model, slot)
        print(f"slot {slot:2d}: own social {si:.3f}, temporal {ti:.3f}")

    friends = sorted({b if a == user else a for a, b in world.friend_edges
                      if user in (a, b)})
    pull = friend_influence(models, {user: friends}, 19)[user]
    print(f"{len(friends)} friends' pull at slot 19 per cluster: "
          f"{pull.round(3)}")

    rng = np.random.default_rng(0)
    pts = np.array([sample_location(model, 19, rng, influence=pull)
                    for _ in range(500)])
    print(f"500 samples at slot 19: centroid {pts.mean(axis=0).round(1)} m")


if __name__ == "__main__":
    main()
